//! The three closed-loop workloads: one client, no think time, each step
//! issued when the previous one has returned.

use crate::oracle::{self, BenchAlg, Naive, Tally, SAMPLE_PER_KIND};
use crate::stats::{median, ops_per_s, percentile};
use crate::trace::{Counts, Tracer};
use crate::zoo::{Script, StepInput, Zoo};
use dtc_core::{DynForest, NodeId, QueryBatch, QueryError, QueryOutcome, UpdateStats};
use std::hint::black_box;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Untimed steps before measuring, so lazily grown buffers are in place.
const WARMUP_STEPS: usize = 3;
/// Fewest measured steps: p90 then has at least ten samples above it.
const MIN_STEPS: usize = 100;
/// Rounds of layer probes at the end of a traced run.
const PROBE_REPS: usize = 5;

const LABEL_EDITS: usize = 1000;
const READS: usize = 64;
const CUTS: usize = 128;
const QUERY_MIX_EDITS: usize = 64;

/// A workload: what one step does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 1,000 label edits → recompute → 64 reads (`SubtreeSum`).
    LabelStream,
    /// 128 cuts → recompute → link them back → recompute → 1,000 label
    /// edits → recompute → 64 reads (`SubtreeSum`).
    CutLinkCycle,
    /// 64 label edits → recompute → one `DynForest::query_batch` of 4,096
    /// mixed queries (`MinMax`).
    QueryMix,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::LabelStream,
        Workload::CutLinkCycle,
        Workload::QueryMix,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LabelStream => "label_stream",
            Workload::CutLinkCycle => "cut_link_cycle",
            Workload::QueryMix => "query_mix",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Run settings, from the command line.
#[derive(Debug)]
pub struct Config {
    /// Which step to run.
    pub workload: Workload,
    /// Seed of the zoo and of the step scripts.
    pub seed: u64,
    /// Wall time of the measured loop.
    pub seconds: f64,
    /// `false`: the end-to-end metrics. `true`: alternate untraced and
    /// traced steps, probe each layer, and report the per-layer metrics.
    pub trace: bool,
}

/// One reported metric.
#[derive(Debug)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What a run produced.
pub struct Outcome {
    /// Operations attempted and failed, checks included.
    pub tally: Tally,
    /// Measured steps.
    pub steps: usize,
    /// The end-to-end metrics, or the per-layer ones in a traced run.
    pub metrics: Vec<Metric>,
    /// The tracer, holding every span of a traced run.
    pub tracer: Tracer,
}

impl Outcome {
    /// The run passed its correctness gate.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0
    }

    /// Process exit code: non-zero when any operation failed.
    pub fn exit_code(&self) -> u8 {
        u8::from(!self.correct())
    }
}

/// Answers a step returns, checked after its timer stops.
struct Answers<A: BenchAlg> {
    reads: Vec<Result<A::Val, QueryError>>,
    queries: Option<Vec<QueryOutcome<A>>>,
}

struct Bench<A: BenchAlg> {
    alg: A,
    zoo: Zoo,
    d: DynForest<A>,
    script: Script,
    naive: Naive,
    tracer: Tracer,
    tally: Tally,
}

/// Runs `cfg.workload` under `alg`.
pub fn run<A: BenchAlg>(alg: A, cfg: &Config) -> Result<Outcome, String> {
    let mut tracer = Tracer::new();
    tracer.set_on(cfg.trace);
    let setup = tracer.open("setup");
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let t = Instant::now();
        let (zoo, forest) = tracer.time("arena.build", || {
            let zoo = Zoo::generate(cfg.seed);
            let forest = zoo.forest();
            (zoo, forest)
        });
        let d = tracer.time("dynamic.new", || DynForest::new(forest, alg));
        setup_s.push(t.elapsed().as_secs_f64());
        built = Some((zoo, d));
    }
    tracer.close(setup);
    tracer.set_on(false);
    let (zoo, d) = built.expect("at least one set-up");
    let mut b = Bench {
        alg,
        naive: Naive::new(&zoo),
        script: Script::new(cfg.seed),
        zoo,
        d,
        tracer,
        tally: Tally::default(),
    };

    for _ in 0..WARMUP_STEPS {
        let input = b.next_input(cfg.workload);
        let answers = b.step(cfg.workload, &input);
        b.check_step(cfg.workload, &input, answers);
    }

    // In a traced run odd steps are traced and even ones are not, so the
    // two halves see the same drift and their ratio is the overhead.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut plain_ops = 0;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < cfg.seconds || plain.len() + traced.len() < MIN_STEPS {
        let input = b.next_input(cfg.workload);
        let on = cfg.trace && plain.len() > traced.len();
        b.tracer.set_on(on);
        let t = Instant::now();
        let span = b.tracer.open("step");
        let answers = b.step(cfg.workload, &input);
        b.tracer.close(span);
        let dt = t.elapsed().as_secs_f64();
        b.tracer.set_on(false);
        if on {
            traced.push(dt);
        } else {
            plain.push(dt);
            plain_ops += input.ops();
        }
        b.check_step(cfg.workload, &input, answers);
    }
    let steps = plain.len() + traced.len();
    let rss = peak_rss_bytes().ok_or("cannot read the peak resident set size (VmHWM)")?;

    let mut metrics = Vec::new();
    if cfg.trace {
        b.tracer.set_on(true);
        let span = b.tracer.open("probe");
        for _ in 0..PROBE_REPS {
            b.probe();
        }
        b.tracer.close(span);
        b.tracer.set_on(false);
        metrics = b.layer_metrics(&plain, &traced);
    } else {
        let ms = |s: f64| s * 1e3;
        metrics.extend([
            metric("setup_s", median(&setup_s), "s"),
            metric("step_p50_ms", ms(median(&plain)), "ms"),
            metric("step_p90_ms", ms(percentile(&plain, 0.9)), "ms"),
            metric("ops_per_s", ops_per_s(plain_ops, &plain), "1/s"),
            metric("rss_bytes_per_node", rss as f64 / b.zoo.len() as f64, "B"),
        ]);
    }
    oracle::check_all(&b.alg, &b.zoo, &b.d, &mut b.tally);
    Ok(Outcome {
        tally: b.tally,
        steps,
        metrics,
        tracer: b.tracer,
    })
}

/// Peak resident set size of this process, from `/proc/self/status`.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn counts(items: usize, st: &UpdateStats) -> Counts {
    Counts {
        items,
        dirty: st.dirty,
        rounds: st.rounds,
        replayed: st.replayed_slots,
    }
}

impl<A: BenchAlg> Bench<A> {
    /// Draws the next step's inputs (untimed).
    fn next_input(&mut self, w: Workload) -> StepInput {
        let (s, zoo) = (&mut self.script, &mut self.zoo);
        let mut input = StepInput::default();
        match w {
            Workload::LabelStream => {
                input.edits = s.label_edits(zoo, LABEL_EDITS);
                input.reads = s.nodes(zoo, READS);
            }
            Workload::CutLinkCycle => {
                (input.cuts, input.links) = s.cut_link(zoo, CUTS);
                input.edits = s.label_edits(zoo, LABEL_EDITS);
                input.reads = s.nodes(zoo, READS);
            }
            Workload::QueryMix => {
                input.edits = s.label_edits(zoo, QUERY_MIX_EDITS);
                input.queries = s.queries(zoo);
            }
        }
        input
    }

    /// One step: exactly the calls a user would make.
    fn step(&mut self, w: Workload, input: &StepInput) -> Answers<A> {
        let mut answers = Answers {
            reads: Vec::new(),
            queries: None,
        };
        match w {
            Workload::LabelStream => {
                self.label_batch(&input.edits);
                answers.reads = self.read(&input.reads);
            }
            Workload::CutLinkCycle => {
                self.cut(&input.cuts);
                self.link(&input.links);
                self.label_batch(&input.edits);
                answers.reads = self.read(&input.reads);
            }
            Workload::QueryMix => {
                self.label_batch(&input.edits);
                answers.queries = self.query(&input.queries);
            }
        }
        answers
    }

    fn label_batch(&mut self, edits: &[(NodeId, i64)]) {
        self.tracer
            .time("dynamic.stage", || self.d.batch_update_weights(edits));
        self.tracer.count(Counts {
            items: edits.len(),
            ..Counts::default()
        });
        self.tally.attempted += edits.len() as u64;
        let st = self.tracer.time("dynamic.recompute", || self.d.recompute());
        // A recompute that replays every slot re-anchored on a full
        // contraction; any other one propagated.
        self.tracer.rename(if st.replayed_slots == st.total {
            "dynamic.reanchor"
        } else {
            "propagate.recompute"
        });
        self.tracer.count(counts(edits.len(), &st));
    }

    fn cut(&mut self, cuts: &[NodeId]) {
        let r = self
            .tracer
            .time("dynamic.stage", || self.d.try_batch_cut(cuts));
        self.structural(cuts.len(), r.is_ok(), "dynamic.cut_recompute");
    }

    fn link(&mut self, links: &[(NodeId, NodeId)]) {
        let r = self
            .tracer
            .time("dynamic.stage", || self.d.try_batch_link(links));
        self.structural(links.len(), r.is_ok(), "dynamic.link_recompute");
    }

    fn structural(&mut self, k: usize, ok: bool, span: &'static str) {
        self.tracer.count(Counts {
            items: k,
            ..Counts::default()
        });
        self.tally.attempted += k as u64;
        if !ok {
            self.tally.failed += k as u64;
        }
        let st = self.tracer.time(span, || self.d.recompute());
        self.tracer.count(counts(k, &st));
    }

    fn read(&mut self, reads: &[NodeId]) -> Vec<Result<A::Val, QueryError>> {
        let d = &self.d;
        let vals: Vec<_> = self.tracer.time("dynamic.read", || {
            reads.iter().map(|&v| d.try_subtree_value(v)).collect()
        });
        self.tracer.count(Counts {
            items: reads.len(),
            ..Counts::default()
        });
        for v in &vals {
            self.tally.record(v.is_ok());
        }
        vals
    }

    fn query(&mut self, q: &QueryBatch) -> Option<Vec<QueryOutcome<A>>> {
        let r = self.tracer.time("query.batch", || self.d.query_batch(q));
        self.tracer.count(Counts {
            items: q.len(),
            ..Counts::default()
        });
        self.tally.attempted += q.len() as u64;
        if r.is_err() {
            self.tally.failed += q.len() as u64;
        }
        r.ok()
    }

    /// Checks a step's answers against the oracle (untimed).
    fn check_step(&mut self, w: Workload, input: &StepInput, answers: Answers<A>) {
        self.check_reads(&input.reads, &answers.reads);
        if let Some(qa) = &answers.queries {
            self.tally.failed += self
                .naive
                .check_answers(&self.alg, &self.zoo, &input.queries, qa);
        }
        if w == Workload::CutLinkCycle {
            self.tally
                .record(oracle::shape_restored(&self.zoo, &self.d));
        }
        if w != Workload::QueryMix {
            oracle::check_components(&self.alg, &self.zoo, &self.d, &mut self.tally);
        }
    }

    /// Checks the first `SAMPLE_PER_KIND` reads against naive walks.
    fn check_reads(&mut self, reads: &[NodeId], vals: &[Result<A::Val, QueryError>]) {
        for (&v, got) in reads.iter().zip(vals).take(SAMPLE_PER_KIND) {
            if let Ok(got) = got {
                let want = self.naive.subtree(&self.alg, &self.zoo, v.index() as u32);
                self.tally.failed += u64::from(*got != want);
            }
        }
    }

    /// One pass over every layer, so a traced run reports every per-layer
    /// metric whichever layers its steps load: a cut/link cycle, the
    /// re-anchoring label batch it forces, a propagated label batch, reads,
    /// the query layer through `DynForest` and apart, and a full contraction
    /// against the sequential fold.
    fn probe(&mut self) {
        let (cuts, links) = self.script.cut_link(&self.zoo, CUTS);
        self.cut(&cuts);
        self.link(&links);
        for _ in 0..2 {
            let edits = self.script.label_edits(&mut self.zoo, LABEL_EDITS);
            self.label_batch(&edits);
        }
        let reads = self.script.nodes(&self.zoo, READS);
        let vals = self.read(&reads);
        self.check_reads(&reads, &vals);
        let q = self.script.queries(&self.zoo);
        if let Some(qa) = self.query(&q) {
            self.tally.failed += self.naive.check_answers(&self.alg, &self.zoo, &q, &qa);
        }

        let (alg, f) = (self.alg, self.d.forest());
        let c = self
            .tracer
            .time("query.contract", || f.contraction().run(&alg));
        let r = self
            .tracer
            .time("query.resolve", || c.query_batch(f, &alg, &q));
        self.tracer.count(Counts {
            items: q.len(),
            ..Counts::default()
        });
        self.tally.attempted += q.len() as u64;
        match r {
            Ok(qa) => self.tally.failed += self.naive.check_answers(&alg, &self.zoo, &q, &qa),
            Err(_) => self.tally.failed += q.len() as u64,
        }

        let c = self
            .tracer
            .time("contract.run", || f.contraction().run(&alg));
        let fold = self
            .tracer
            .time("contract.sequential_fold", || f.sequential_fold(&alg));
        black_box((c, fold));
    }

    fn layer_metrics(&self, plain: &[f64], traced: &[f64]) -> Vec<Metric> {
        let t = &self.tracer;
        let ms = |name: &str| -> Vec<f64> { t.named(name).map(|s| s.ms()).collect() };
        let med_ms = |name: &str| median(&ms(name));
        let per = |name: &str, f: &dyn Fn(&crate::trace::Span, Counts) -> f64| -> f64 {
            let xs: Vec<f64> = t
                .named(name)
                .map(|s| f(s, s.counts.expect("counted span")))
                .collect();
            median(&xs)
        };
        let per_item_us = |name: &str| per(name, &|s, c| s.ms() * 1e3 / c.items as f64);

        let (alg, f) = (self.alg, self.d.forest());
        let profiled = f.contraction().profiled().run(&alg);
        let profile = profiled.profile().expect("a profiled run has a profile");
        let frontier: u64 = profile.per_round().iter().map(|r| r.frontier).sum();

        vec![
            metric("arena.build_ms", med_ms("arena.build"), "ms"),
            metric("contract.run_ms", med_ms("contract.run"), "ms"),
            metric(
                "contract.fold_ratio",
                med_ms("contract.run") / med_ms("contract.sequential_fold"),
                "ratio",
            ),
            metric("contract.rounds", profiled.rounds() as f64, "count"),
            metric(
                "contract.retire_frac",
                profile.totals().retired() as f64 / frontier as f64,
                "frac",
            ),
            metric("dynamic.new_ms", med_ms("dynamic.new"), "ms"),
            metric("dynamic.stage_us", med_ms("dynamic.stage") * 1e3, "us"),
            metric(
                "dynamic.cut_recompute_ms",
                med_ms("dynamic.cut_recompute"),
                "ms",
            ),
            metric(
                "dynamic.link_recompute_ms",
                med_ms("dynamic.link_recompute"),
                "ms",
            ),
            metric("dynamic.reanchor_ms", med_ms("dynamic.reanchor"), "ms"),
            metric(
                "dynamic.dirty_per_cut",
                per("dynamic.cut_recompute", &|_, c| {
                    c.dirty as f64 / c.items as f64
                }),
                "count",
            ),
            metric("dynamic.read_us", per_item_us("dynamic.read"), "us"),
            metric(
                "propagate.recompute_ms",
                med_ms("propagate.recompute"),
                "ms",
            ),
            metric(
                "propagate.replayed_per_edit",
                per("propagate.recompute", &|_, c| {
                    c.replayed as f64 / c.items as f64
                }),
                "count",
            ),
            metric(
                "propagate.rounds",
                per("propagate.recompute", &|_, c| c.rounds as f64),
                "count",
            ),
            metric("query.batch_ms", med_ms("query.batch"), "ms"),
            metric("query.contract_ms", med_ms("query.contract"), "ms"),
            metric(
                "query.resolve_us_per_query",
                per_item_us("query.resolve"),
                "us",
            ),
            metric(
                "trace.overhead_frac",
                median(traced) / median(plain),
                "ratio",
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtc_core::SubtreeSum;

    fn bench(seed: u64) -> Bench<SubtreeSum> {
        let zoo = Zoo::generate(seed);
        Bench {
            alg: SubtreeSum,
            d: DynForest::new(zoo.forest(), SubtreeSum),
            naive: Naive::new(&zoo),
            script: Script::new(seed),
            zoo,
            tracer: Tracer::new(),
            tally: Tally::default(),
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn cut_link_cycle_restores_the_shape_and_passes_the_gate() {
        let mut b = bench(11);
        let before: Vec<_> =
            b.d.forest()
                .node_ids()
                .map(|v| b.d.forest().parent(v))
                .collect();
        for _ in 0..3 {
            let input = b.next_input(Workload::CutLinkCycle);
            let answers = b.step(Workload::CutLinkCycle, &input);
            assert!(input.cuts.iter().all(|&v| b.d.forest().parent(v).is_some()));
            b.check_step(Workload::CutLinkCycle, &input, answers);
        }
        let after: Vec<_> =
            b.d.forest()
                .node_ids()
                .map(|v| b.d.forest().parent(v))
                .collect();
        assert_eq!(before, after);
        oracle::check_all(&b.alg, &b.zoo, &b.d, &mut b.tally);
        assert_eq!(b.tally.failed, 0);
        assert!(b.tally.attempted > 3 * 1320);
    }

    #[test]
    fn a_wrong_answer_fails_the_run() {
        let mut b = bench(12);
        let input = b.next_input(Workload::LabelStream);
        let answers = b.step(Workload::LabelStream, &input);
        b.check_step(Workload::LabelStream, &input, answers);
        assert_eq!(b.tally.failed, 0);
        // The oracle's copy disagrees with what the library was given.
        b.zoo.labels[0] += 1;
        oracle::check_all(&b.alg, &b.zoo, &b.d, &mut b.tally);
        let out = Outcome {
            tally: b.tally,
            steps: 1,
            metrics: Vec::new(),
            tracer: Tracer::new(),
        };
        assert!(!out.correct());
        assert_ne!(out.exit_code(), 0);
    }
}
