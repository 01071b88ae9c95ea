//! The benchmark's workloads: each is a closed batch of campaign files
//! (TOML text, generated from the workload seed) plus the figure each
//! campaign's records are rendered into. See `pipebench/README.md` for
//! why each workload exists and which layers it stresses.

use campaign::figures;
use campaign::runner::RunRecord;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figs. 8, 9/15 and 10/14: many mid-length single-flow points over
    /// the whole scheme lineup, cellular traces and the Wi-Fi AP.
    PaperSweep,
    /// Thousands of staggered backlogged ABC users on one bottleneck, in
    /// a few long points: the event loop at high flow-table occupancy.
    DenseFleet,
    /// Poisson web flows and an RTC stream, clean and impaired: constant
    /// flow setup/teardown, app timers and loss recovery.
    WebChurn,
}

/// How a campaign's records become a figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Figure {
    /// Fig. 8 from `path` × `scheme` records.
    Pareto,
    /// Figs. 9 and 15 from `scheme` × `trace` records.
    Matrix,
    /// The many-users table from `clients` records.
    ManyUsers,
    /// The web-FCT table, once per `impairment` × `seed` (the first two
    /// axes).
    WebFct,
    /// The RTC table plus the robustness table (`scheme` × `impairment`).
    Rtc,
    /// No figure of its own: the aggregate table is the output.
    AggregateOnly,
}

/// One campaign of a workload: its file text and its figure.
#[derive(Debug, Clone)]
pub struct CampaignFile {
    /// Campaign-file TOML, compiled by `campaign::file::from_str`.
    pub toml: String,
    /// The renderer its decoded records feed.
    pub figure: Figure,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::PaperSweep,
        Workload::DenseFleet,
        Workload::WebChurn,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper-sweep",
            Workload::DenseFleet => "dense-fleet",
            Workload::WebChurn => "web-churn",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's campaign files. The seed only sets each scenario's
    /// `seed` (Poisson arrivals, impairment draws, router and trace
    /// jitter), so every seed runs the same sweep shape.
    pub fn files(self, seed: u64) -> Vec<CampaignFile> {
        let s = scenario_seed(seed);
        match self {
            Workload::PaperSweep => vec![
                file(&pareto_toml(s), Figure::Pareto),
                file(&matrix_toml(s), Figure::Matrix),
                file(&wifi_toml(s), Figure::AggregateOnly),
            ],
            Workload::DenseFleet => vec![file(&dense_toml(s), Figure::ManyUsers)],
            Workload::WebChurn => vec![
                file(&web_toml(seed), Figure::WebFct),
                file(&rtc_toml(s), Figure::Rtc),
            ],
        }
    }
}

fn file(toml: &str, figure: Figure) -> CampaignFile {
    CampaignFile {
        toml: toml.to_string(),
        figure,
    }
}

/// Scenario seeds per `web-load-grid` point. Every point of one seed
/// shares its Poisson arrival stream, so one seed alone moves the
/// workload's event count by ±8%; four independent streams halve that.
const WEB_SEEDS: u64 = 4;

/// Map the workload seed to a scenario seed that a TOML integer holds.
fn scenario_seed(seed: u64) -> u64 {
    // splitmix64 finalizer: nearby workload seeds give unrelated streams
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) & 0x7fff_ffff
}

/// Fig. 9/15 and Fig. 8 run the paper's twelve-scheme cellular lineup.
const CELLULAR_LINEUP: &str = r#"["ABC", "XCP", "XCPw", "Cubic+Codel", "Cubic+PIE", "Copa", "Sprout", "Vegas", "Verus", "BBR", "PCC", "Cubic"]"#;

/// Fig. 8: the lineup over the downlink trace, the uplink trace and the
/// two-hop path, at the Fast scale's 20 s.
fn pareto_toml(seed: u64) -> String {
    format!(
        r#"[campaign]
name = "pareto"

[base]
duration_s = 20
warmup_s = 5
seed = {seed}

[[axis]]
name = "path"

  [[axis.values]]
  label = "down"
  link = {{ trace = "Verizon1" }}

  [[axis.values]]
  label = "up"
  link = {{ trace = "Verizon2" }}

  [[axis.values]]
  label = "up+down"
  topology = {{ two_hop = {{ up = {{ trace = "Verizon2" }}, down = {{ trace = "Verizon1" }} }} }}

[[axis]]
name = "scheme"
schemes = {CELLULAR_LINEUP}
"#
    )
}

/// Figs. 9/15: the lineup × the Fast scale's two traces, 20 s each.
fn matrix_toml(seed: u64) -> String {
    format!(
        r#"[campaign]
name = "cellular-matrix"

[base]
duration_s = 20
warmup_s = 5
seed = {seed}

[[axis]]
name = "scheme"
schemes = {CELLULAR_LINEUP}

[[axis]]
name = "trace"
traces = ["Verizon1", "Verizon2"]
"#
    )
}

/// Figs. 10/14: the Wi-Fi AP with an alternating MCS for ABC, Cubic+CoDel
/// and BBR.
fn wifi_toml(seed: u64) -> String {
    format!(
        r#"[campaign]
name = "wifi-alternating-mcs"

[base]
topology = {{ wifi = {{ mcs = {{ alternating = {{ a = 3, b = 7, period_ms = 500 }} }}, ap_buffer_pkts = 2000 }} }}
duration_s = 20
warmup_s = 5
seed = {seed}

[[axis]]
name = "scheme"
schemes = ["ABC", "Cubic+Codel", "BBR"]
"#
    )
}

/// The `many-users` shape at 1k and 2k users: one 96 Mbit/s ABC
/// bottleneck, fleets ramping in over the first 4 s, a web rider.
fn dense_toml(seed: u64) -> String {
    format!(
        r#"[campaign]
name = "dense-fleet"

[base]
link = {{ constant_mbps = 96.0 }}
duration_s = 20
warmup_s = 0
seed = {seed}
timer_slot_shift = 20
workloads = [{{ web = {{ per_sec = 20.0 }} }}]

[[axis]]
name = "clients"
flows = [
  {{ count = 1000, stagger_ms = 4 }},
  {{ count = 2000, stagger_ms = 2 }},
]
"#
    )
}

/// The impairment axis web-churn sweeps: a clean control and one
/// loss+reorder middlebox.
const IMPAIRMENT_AXIS: &str = r#"[[axis]]
name = "impairment"

  [[axis.values]]
  label = "none"
  impairments = []

  [[axis.values]]
  label = "loss+reorder"
  impairments = [{ kind = "drop", p = 0.01 }, { kind = "reorder", p = 0.02, hold_ms = 5 }]
"#;

/// `web-load-grid` at the Fast scale's 10 s: Poisson arrivals of 30 kB
/// objects per impairment × scenario seed × scheme × offered load
/// (10/25/40 requests/s are 0.2/0.5/0.8 of the link). Fixed-size objects
/// keep the work per point within a few percent across seeds; the
/// built-in heavy-tailed sizes move it by 4× on one point.
fn web_toml(seed: u64) -> String {
    let seeds: Vec<String> = (0..WEB_SEEDS)
        .map(|k| scenario_seed(seed.wrapping_mul(WEB_SEEDS).wrapping_add(k)).to_string())
        .collect();
    let seeds = seeds.join(", ");
    format!(
        r#"[campaign]
name = "web-load-grid"

[base]
link = {{ constant_mbps = 12.0 }}
duration_s = 10
warmup_s = 0
flows = 0

{IMPAIRMENT_AXIS}
[[axis]]
name = "seed"
seeds = [{seeds}]

[[axis]]
name = "scheme"
schemes = ["ABC", "Cubic+Codel", "Cubic", "BBR"]

[[axis]]
name = "load"

  [[axis.values]]
  label = "0.2"
  workloads = [{{ web = {{ per_sec = 10.0, object_bytes = 30000 }} }}]

  [[axis.values]]
  label = "0.5"
  workloads = [{{ web = {{ per_sec = 25.0, object_bytes = 30000 }} }}]

  [[axis.values]]
  label = "0.8"
  workloads = [{{ web = {{ per_sec = 40.0, object_bytes = 30000 }} }}]
"#
    )
}

/// `rtc-coexist` at 10 s: a 300 kbit/s call beside one bulk flow, per
/// scheme. BBR sits out: its bulk flow under loss+reorder runs 0.3M to
/// 0.8M events depending on the seed alone.
fn rtc_toml(seed: u64) -> String {
    format!(
        r#"[campaign]
name = "rtc-coexist"

[base]
link = {{ constant_mbps = 12.0 }}
duration_s = 10
warmup_s = 0
flows = 1
seed = {seed}
workloads = [{{ rtc = {{ kbps = 300 }} }}]

[[axis]]
name = "scheme"
schemes = ["ABC", "Cubic+Codel", "Cubic"]

{IMPAIRMENT_AXIS}"#
    )
}

/// Render `records` into `figure`'s text.
pub fn render(figure: Figure, records: &[RunRecord]) -> String {
    match figure {
        Figure::Pareto => figures::render_fig8(records),
        Figure::Matrix => {
            figures::render_matrix(records, false) + &figures::render_matrix(records, true)
        }
        Figure::ManyUsers => figures::render_many_users(records),
        // impairment and seed are the web campaign's first two axes, so
        // each pair's records are one contiguous run
        Figure::WebFct => records
            .chunk_by(|a, b| {
                a.coords.get("impairment") == b.coords.get("impairment")
                    && a.coords.get("seed") == b.coords.get("seed")
            })
            .map(figures::render_web_fct)
            .collect(),
        Figure::Rtc => figures::render_rtc_coexist(records) + &figures::render_robustness(records),
        Figure::AggregateOnly => String::new(),
    }
}
