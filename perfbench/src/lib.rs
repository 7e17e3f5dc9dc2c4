//! The repository's benchmark: time to a converged SCF energy under the
//! execution models the study compares, the whole policy roster at fine
//! grain, and the cluster simulator's event core, each from a seed.
//!
//! Every workload reports the same end-to-end metrics ([`END_TO_END`])
//! measured with tracing off. A traced run (`--trace 1`) measures the
//! same arms again with a span around every call into a crate's public
//! functions and reports the per-layer metrics ([`per_layer_names`]);
//! a layer that a workload does not exercise reports 0 there. See
//! `perfbench/README.md` for the layer-to-metric map.

pub mod chem;
pub mod sim;
pub mod stats;
pub mod trace;

use stats::Timing;
use std::collections::BTreeMap;
use std::time::Instant;
use trace::Tracer;

/// End-to-end metrics, reported by every workload: (name, unit). The
/// reference arm's own time (`ref_time_s`) is a per-layer metric: the
/// serial SCF runs on one of the host's two cores and swings with that
/// core's speed far more than the two-core arms do.
pub const END_TO_END: &[(&str, &str)] = &[
    ("time_s", "s"),
    ("speedup", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["scf-h2o3-631gs", "roster-h2o4-sto3g-fine", "sim-roster"];

/// Per-layer metrics of a traced run: (name, unit). Every workload
/// reports all of them; those of layers it does not call are 0.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("ref_time_s", "s"),
        ("fock.build_p50_s", "s"),
        ("fock.build_tail_s", "s"),
        ("fock.quartets", "count"),
        ("fock.quartets_per_s", "1/s"),
        ("fock.outside_region_s", "s"),
        ("scf.iterations", "count"),
        ("scf.nonfock_s", "s"),
        ("scf.diis_s", "s"),
        ("linalg.diag_s", "s"),
        ("runtime.utilization", "ratio"),
        ("runtime.idle_s", "s"),
        ("runtime.busy_imbalance", "ratio"),
        ("runtime.steal_attempts", "count"),
        ("runtime.steal_success", "ratio"),
        ("runtime.counter_fetches", "count"),
        ("obs.events_per_build", "count"),
        ("obs.ring_overwritten", "count"),
        ("obs.profile_overhead_s", "s"),
        ("balance.persistence_plan_s", "s"),
        ("distsim.sim_s", "s"),
        ("distsim.sim_faults_s", "s"),
        ("distsim.events", "count"),
        ("distsim.faults_events", "count"),
        ("distsim.steal_attempts", "count"),
        ("faults.dropped_messages", "count"),
        ("faults.recovered", "count"),
        ("trace.overhead_s", "s"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for p in chem::ROSTER_POLICIES {
        out.push((format!("sched.scf_s.{p}"), "s"));
    }
    for p in chem::ROSTER_POLICIES {
        for c in chem::BLAME {
            out.push((format!("obs.{c}_s.{p}"), "s"));
        }
    }
    for m in sim::MODELS {
        out.push((format!("distsim.events_per_s.{m}"), "1/s"));
    }
    for m in sim::MODELS {
        out.push((format!("distsim.faults_events_per_s.{m}"), "1/s"));
    }
    out
}

/// One benchmark run: the seed, the measuring time and the tracer.
pub struct Ctx {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Seconds of measurement.
    pub seconds: f64,
    /// Whether this is a traced run.
    pub trace: bool,
    /// Span recorder (switched on only for the traced half of a traced run).
    pub tracer: Tracer,
}

impl Ctx {
    /// A run of `seconds` on `seed`.
    pub fn new(seed: u64, seconds: f64, trace: bool) -> Ctx {
        Ctx {
            seed,
            seconds,
            trace,
            tracer: Tracer::default(),
        }
    }

    /// Runs one warm-up sample, then `sample` with tracing off for the
    /// rest of the measuring time (or, in a traced run, for half of it
    /// and then with tracing on for the other half). `sample(i, record)`
    /// returns the sample's headline time; with `record` false (the
    /// warm-up) it checks its results but keeps no timing. Before each
    /// untraced sample the workload's set-up runs again ([`SETUP_REPS`]
    /// times), so set-up is timed, warm, across the whole run rather
    /// than only at its start. Returns (untraced, traced) headline times.
    pub fn measure<F, T>(
        &self,
        setup: &mut Setup<F>,
        mut sample: impl FnMut(usize, bool) -> f64,
    ) -> (Timing, Timing)
    where
        F: FnMut() -> T,
    {
        let start = Instant::now();
        // The first sample of a process runs slow (its first SCF takes
        // 0.7-1.2 s longer than the next ones): keep it out of every
        // median.
        std::hint::black_box(sample(0, false));
        let left = (self.seconds - start.elapsed().as_secs_f64()).max(0.0);
        let share = if self.trace { 0.5 } else { 1.0 };
        let mut untraced = Timing::new("untraced");
        let mut traced = Timing::new("traced");
        let mut i = 1;
        sample_for(left * share, || {
            for _ in 0..SETUP_REPS {
                std::hint::black_box(setup.run());
            }
            untraced.values.push(sample(i, true));
            i += 1;
        });
        if self.trace {
            self.tracer.set_on(true);
            sample_for(left * share, || {
                traced.values.push(sample(i, true));
                i += 1;
            });
            self.tracer.set_on(false);
        }
        (untraced, traced)
    }
}

/// Set-up repetitions before each untraced sample.
pub const SETUP_REPS: usize = 6;

/// A workload's set-up, timed every time it runs after the first.
pub struct Setup<F> {
    f: F,
    /// One value per timed run of the set-up.
    pub times: Timing,
}

impl<F, T> Setup<F>
where
    F: FnMut() -> T,
{
    /// Runs the set-up once, untimed, and returns its result.
    pub fn new(mut f: F) -> (Setup<F>, T) {
        let out = f();
        let s = Setup {
            f,
            times: Timing::new("setup"),
        };
        (s, out)
    }

    /// Runs the set-up once more.
    pub fn run(&mut self) -> T {
        let t0 = Instant::now();
        let out = (self.f)();
        self.times.values.push(t0.elapsed().as_secs_f64());
        out
    }
}

/// Calls `f` at least once, and again while one more call of the
/// length of the last still ends within `seconds`.
fn sample_for(seconds: f64, mut f: impl FnMut()) {
    let start = Instant::now();
    loop {
        let t0 = Instant::now();
        f();
        let last = t0.elapsed().as_secs_f64();
        if start.elapsed().as_secs_f64() + last > seconds {
            break;
        }
    }
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Checked operations.
    pub attempted: u64,
    /// Checked operations whose check failed.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<String, f64>,
    /// Timing series summarized in the header.
    pub timings: Vec<Timing>,
    /// Extra header lines.
    pub notes: Vec<String>,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Counts one checked operation; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Sets a metric value.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Records a timing series for the header and sets `metric` to its
    /// median.
    pub fn set_timing(&mut self, metric: impl Into<String>, label: &str, values: &[f64]) {
        let metric = metric.into();
        let t = Timing {
            name: format!("{metric} {label}").trim_end().to_string(),
            values: values.to_vec(),
        };
        self.set(metric, t.median());
        self.timings.push(t);
    }

    /// Sets the headline metrics shared by every workload from the
    /// untraced and traced headline times.
    pub fn headline(&mut self, setup: &Timing, untraced: &Timing, traced: &Timing) {
        self.set("setup_s", setup.median());
        self.timings.push(setup.clone());
        if !traced.values.is_empty() {
            self.set("trace.overhead_s", traced.median() - untraced.median());
            let mut t = traced.clone();
            t.name = "time_s (traced)".into();
            self.timings.push(t);
        }
    }
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64: the benchmark's own input generator, so inputs depend
/// only on the seed.
pub struct SplitMix(pub u64);

impl SplitMix {
    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Runs the named workload.
pub fn run_workload(name: &str, ctx: &Ctx) -> Option<Outcome> {
    match name {
        "scf-h2o3-631gs" => Some(chem::scf_h2o3(ctx)),
        "roster-h2o4-sto3g-fine" => Some(chem::roster_h2o4(ctx)),
        "sim-roster" => Some(sim::sim_roster(ctx)),
        _ => None,
    }
}
