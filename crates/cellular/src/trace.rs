//! Cellular packet-delivery traces in Mahimahi's format.
//!
//! A trace is a list of timestamps (milliseconds, one per line in the file
//! format) at which the link can deliver one MTU-sized packet. Mahimahi
//! replays the list cyclically; an opportunity that finds the queue empty
//! is wasted. [`CellTrace`] carries the parsed opportunities plus the
//! repeat period and converts into a [`netsim::link::TraceLink`].

use netsim::link::TraceLink;
use netsim::rate::Rate;
use netsim::time::{SimDuration, SimTime};
use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};
use std::sync::Arc;

/// A parsed (or synthesized) cellular trace.
#[derive(Debug, Clone, PartialEq)]
pub struct CellTrace {
    pub name: String,
    /// Delivery opportunities within one period, sorted. Immutable and
    /// shared: every clone of the trace, and every link built from it by
    /// [`CellTrace::to_link`], points at this one list.
    pub opportunities: Arc<[SimDuration]>,
    pub period: SimDuration,
}

/// Errors from parsing a Mahimahi trace.
#[derive(Debug)]
pub enum TraceError {
    Io(std::io::Error),
    Parse { line: usize, content: String },
    Empty,
    Unsorted { line: usize },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "I/O error: {e}"),
            TraceError::Parse { line, content } => {
                write!(f, "line {line}: not a millisecond timestamp: {content:?}")
            }
            TraceError::Empty => write!(f, "trace has no delivery opportunities"),
            TraceError::Unsorted { line } => write!(f, "line {line}: timestamps out of order"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

impl CellTrace {
    /// Parse the Mahimahi format: one integer (ms) per line, sorted,
    /// possibly with repeated values (several opportunities in one ms).
    /// The period is the last timestamp rounded up to the next full ms.
    pub fn parse_mahimahi(name: &str, reader: impl Read) -> Result<CellTrace, TraceError> {
        let mut opportunities = Vec::new();
        let mut last: u64 = 0;
        for (i, line) in BufReader::new(reader).lines().enumerate() {
            let line = line?;
            let t = line.trim();
            if t.is_empty() || t.starts_with('#') {
                continue;
            }
            let ms: u64 = t.parse().map_err(|_| TraceError::Parse {
                line: i + 1,
                content: t.to_string(),
            })?;
            if ms < last {
                return Err(TraceError::Unsorted { line: i + 1 });
            }
            last = ms;
            opportunities.push(SimDuration::from_millis(ms));
        }
        if opportunities.is_empty() {
            return Err(TraceError::Empty);
        }
        let period = SimDuration::from_millis(last + 1);
        Ok(CellTrace {
            name: name.to_string(),
            opportunities: opportunities.into(),
            period,
        })
    }

    /// Serialize back to the Mahimahi line format.
    pub fn write_mahimahi(&self, mut w: impl Write) -> std::io::Result<()> {
        for o in self.opportunities.iter() {
            writeln!(w, "{}", o.as_nanos() / 1_000_000)?;
        }
        Ok(())
    }

    /// Mean capacity over one period, assuming MTU-sized opportunities.
    pub fn mean_rate(&self) -> Rate {
        Rate::from_bytes_per(
            self.opportunities.len() as u64 * netsim::packet::MTU_BYTES as u64,
            self.period,
        )
    }

    /// Capacity averaged over `[t, t+window)`, for plotting µ(t) curves.
    pub fn rate_in_window(&self, t: SimTime, window: SimDuration) -> Rate {
        let period = self.period.as_nanos();
        let count_before = |tn: u64| -> u64 {
            let cycles = tn / period;
            let off = SimDuration::from_nanos(tn % period);
            let within = self.opportunities.partition_point(|&o| o < off) as u64;
            cycles * self.opportunities.len() as u64 + within
        };
        let a = t.as_nanos();
        let b = a + window.as_nanos();
        let n = count_before(b) - count_before(a);
        Rate::from_bytes_per(n * netsim::packet::MTU_BYTES as u64, window)
    }

    /// Build the simulator link for this trace. The link shares the
    /// opportunity list (one reference-count increment), it does not copy it.
    pub fn to_link(&self) -> TraceLink {
        TraceLink::new(Arc::clone(&self.opportunities), self.period)
    }

    /// Total duration of one period.
    pub fn duration(&self) -> SimDuration {
        self.period
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        let input = "0\n5\n5\n12\n40\n";
        let tr = CellTrace::parse_mahimahi("t", input.as_bytes()).unwrap();
        assert_eq!(tr.opportunities.len(), 5);
        assert_eq!(tr.period, SimDuration::from_millis(41));
        let mut out = Vec::new();
        tr.write_mahimahi(&mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), input);
    }

    #[test]
    fn parse_skips_comments_and_blanks() {
        let input = "# header\n0\n\n10\n";
        let tr = CellTrace::parse_mahimahi("t", input.as_bytes()).unwrap();
        assert_eq!(tr.opportunities.len(), 2);
    }

    #[test]
    fn to_link_shares_the_opportunity_list() {
        let tr = CellTrace::parse_mahimahi("t", "0\n5\n5\n12\n40\n".as_bytes()).unwrap();
        let clone = tr.clone();
        assert!(Arc::ptr_eq(&tr.opportunities, &clone.opportunities));
        let before = Arc::strong_count(&tr.opportunities);
        let link = tr.to_link();
        assert_eq!(Arc::strong_count(&tr.opportunities), before + 1);
        assert_eq!(link.opportunities_per_period(), tr.opportunities.len());
        drop(link);
        assert_eq!(Arc::strong_count(&tr.opportunities), before);
    }

    #[test]
    fn parse_rejects_garbage() {
        let err = CellTrace::parse_mahimahi("t", "0\nxyz\n".as_bytes()).unwrap_err();
        assert!(matches!(err, TraceError::Parse { line: 2, .. }));
    }

    #[test]
    fn parse_rejects_unsorted() {
        let err = CellTrace::parse_mahimahi("t", "5\n3\n".as_bytes()).unwrap_err();
        assert!(matches!(err, TraceError::Unsorted { line: 2 }));
    }

    #[test]
    fn parse_rejects_empty() {
        let err = CellTrace::parse_mahimahi("t", "# nothing\n".as_bytes()).unwrap_err();
        assert!(matches!(err, TraceError::Empty));
    }

    #[test]
    fn mean_rate_of_uniform_trace() {
        // one opportunity per ms = 12 Mbit/s
        let body: String = (0..1000).map(|i| format!("{i}\n")).collect();
        let tr = CellTrace::parse_mahimahi("t", body.as_bytes()).unwrap();
        assert!((tr.mean_rate().mbps() - 12.0).abs() < 0.1);
    }

    #[test]
    fn windowed_rate_sees_bursts() {
        // all 100 opportunities in the first 100 ms of a 1 s period
        let body: String = (0..100).map(|i| format!("{i}\n")).collect();
        let mut tr = CellTrace::parse_mahimahi("t", body.as_bytes()).unwrap();
        tr.period = SimDuration::from_secs(1);
        let early = tr.rate_in_window(SimTime::ZERO, SimDuration::from_millis(100));
        let late = tr.rate_in_window(
            SimTime::ZERO + SimDuration::from_millis(500),
            SimDuration::from_millis(100),
        );
        assert!(early.mbps() > 10.0);
        assert_eq!(late.mbps(), 0.0);
    }
}
