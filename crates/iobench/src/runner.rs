//! Parallel run fan-out for experiments.
//!
//! Each experiment describes its simulated runs as a list of [`RunPlan`]s —
//! independent closures that drive a fresh [`Sim`] — and hands them to a
//! [`Runner`], which executes them across worker threads
//! (`iobench --jobs N`). A `Sim` is `Rc`/`RefCell`-based and `!Send`, so
//! each run is built, driven and captured by `execute` on one worker
//! thread; only the run's plain-data outcome (the experiment's value and
//! its [`RunCapture`]) crosses back.
//!
//! Determinism contract: every run is a pure function of virtual time, and
//! outcomes are put back in plan order on the calling thread before they
//! reach the caller and the [`StatsSink`] — so stdout, `--stats-json`,
//! `--trace`, and `--timeline` are byte-identical for any `--jobs` value
//! (see DESIGN.md "Wall-clock performance").

use simkit::Sim;
use std::iter::Enumerate;
use std::sync::Mutex;
use std::vec;

use crate::experiments::{RunCapture, RunSpec, StatsSink};

/// One independent simulated run: an id (`experiment/run` path style, e.g.
/// `fig10/A/FSR`) plus a closure that drives a fresh sim to the
/// experiment's value.
pub struct RunPlan<T> {
    id: String,
    body: Box<dyn FnOnce(&Sim) -> T + Send>,
}

impl<T> RunPlan<T> {
    /// A plan that runs `body` against a sim the runner builds for it.
    pub fn new(id: impl Into<String>, body: impl FnOnce(&Sim) -> T + Send + 'static) -> RunPlan<T> {
        RunPlan {
            id: id.into(),
            body: Box::new(body),
        }
    }
}

/// The plans not yet claimed, with their plan-order indices.
type Queue<T> = Mutex<Enumerate<vec::IntoIter<RunPlan<T>>>>;

/// A run's value and, when a sink is attached, its capture.
type Outcome<T> = (T, Option<RunCapture>);

/// Builds the run's sim armed as `spec` asks, drives the plan, and, when
/// there is a spec (a sink), captures what the sink keeps. The one place
/// a run's `Sim` is built; runs entirely on one thread.
fn execute<T>(spec: Option<RunSpec>, plan: RunPlan<T>) -> Outcome<T> {
    let sim = Sim::new();
    let arm = spec.unwrap_or_default();
    if arm.tracing {
        sim.tracer().set_enabled(true);
    }
    if let Some(every) = arm.sample_every {
        sim.telemetry()
            .start(&sim, every, StatsSink::MAX_SAMPLES_PER_RUN);
    }
    let value = (plan.body)(&sim);
    // A disarmed tracer or sampler has nothing to drain.
    let capture = spec.map(|_| RunCapture {
        stats: sim.stats().to_json(),
        spans: sim.tracer().take_spans(),
        series: sim.telemetry().take_series(),
        id: plan.id,
    });
    (value, capture)
}

/// The worker loop: claims plans off the shared queue until it is empty,
/// executing each, and returns the outcomes with their plan indices.
fn work<T>(spec: Option<RunSpec>, queue: &Queue<T>) -> Vec<(usize, Outcome<T>)> {
    let mut done = Vec::new();
    loop {
        // Not `while let`: that would hold the lock through the run.
        let Some((i, plan)) = queue.lock().expect("run queue poisoned").next() else {
            return done;
        };
        done.push((i, execute(spec, plan)));
    }
}

/// Executes [`RunPlan`]s across up to `jobs` OS threads, then hands the
/// outcomes (sink captures, return values) back in deterministic plan
/// order.
pub struct Runner<'a> {
    jobs: usize,
    sink: Option<&'a StatsSink>,
}

impl<'a> Runner<'a> {
    /// A runner using up to `jobs` worker threads.
    ///
    /// # Panics
    ///
    /// Panics if `jobs` is zero (the CLI rejects it earlier with usage).
    pub fn new(jobs: usize, sink: Option<&'a StatsSink>) -> Runner<'a> {
        assert!(jobs >= 1, "jobs must be at least 1");
        Runner { jobs, sink }
    }

    /// A single-threaded runner: runs execute in plan order on the
    /// calling thread.
    pub fn serial(sink: Option<&'a StatsSink>) -> Runner<'a> {
        Runner::new(1, sink)
    }

    /// Executes the plans — concurrently when this runner has more than
    /// one job — and returns their values in plan order. Captures reach
    /// the sink in plan order regardless of which worker finished first.
    /// A panicking plan panics the caller, with the plan's own payload.
    pub fn run<T: Send>(&self, plans: Vec<RunPlan<T>>) -> Vec<T> {
        let spec = self.sink.map(StatsSink::spec);
        let workers = self.jobs.min(plans.len());
        let queue = Mutex::new(plans.into_iter().enumerate());
        let mut done = if workers <= 1 {
            // One worker suffices: the loop runs inline.
            work(spec, &queue)
        } else {
            std::thread::scope(|scope| {
                let queue = &queue;
                let handles: Vec<_> = (0..workers)
                    .map(|_| scope.spawn(move || work(spec, queue)))
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                    .collect::<Vec<_>>()
            })
        };
        done.sort_unstable_by_key(|&(i, _)| i);
        done.into_iter()
            .map(|(_, (value, capture))| {
                if let (Some(sink), Some(capture)) = (self.sink, capture) {
                    sink.push(capture);
                }
                value
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plans(n: usize) -> Vec<RunPlan<usize>> {
        (0..n)
            .map(|i| RunPlan::new(format!("test/{i}"), move |_sim| i * 10))
            .collect()
    }

    /// `(id, stats)` of every captured run, in capture order.
    fn captured(sink: &StatsSink) -> Vec<(String, String)> {
        sink.runs()
            .iter()
            .map(|r| (r.id.clone(), r.stats.clone()))
            .collect()
    }

    #[test]
    fn serial_preserves_plan_order() {
        let out = Runner::serial(None).run(plans(5));
        assert_eq!(out, vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn parallel_preserves_plan_order() {
        let out = Runner::new(4, None).run(plans(9));
        assert_eq!(out, (0..9).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn sink_receives_outcomes_in_plan_order() {
        let serial = StatsSink::new();
        Runner::serial(Some(&serial)).run(plans(6));
        let parallel = StatsSink::new();
        Runner::new(3, Some(&parallel)).run(plans(6));
        assert_eq!(captured(&serial), captured(&parallel));
        assert_eq!(
            captured(&serial)
                .into_iter()
                .map(|(id, _)| id)
                .collect::<Vec<_>>(),
            (0..6).map(|i| format!("test/{i}")).collect::<Vec<_>>()
        );
    }

    #[test]
    fn more_jobs_than_plans_is_fine() {
        let out = Runner::new(16, None).run(plans(2));
        assert_eq!(out, vec![0, 10]);
    }

    /// Five plans, the third of which panics.
    fn one_panics() -> Vec<RunPlan<usize>> {
        (0..5)
            .map(|i| {
                RunPlan::new(format!("test/{i}"), move |_sim| {
                    assert_ne!(i, 2, "plan 2 failed");
                    i
                })
            })
            .collect()
    }

    #[test]
    #[should_panic(expected = "plan 2 failed")]
    fn serial_panic_reaches_the_caller() {
        Runner::serial(None).run(one_panics());
    }

    #[test]
    #[should_panic(expected = "plan 2 failed")]
    fn parallel_panic_crosses_the_join() {
        Runner::new(4, None).run(one_panics());
    }

    #[test]
    fn sampling_sink_collects_timelines_in_plan_order() {
        let sampled = |jobs: usize| {
            let sink = StatsSink::with_capture(false, Some(simkit::SimDuration::from_millis(1)));
            let plans: Vec<RunPlan<()>> = (0..4)
                .map(|i| {
                    RunPlan::new(format!("test/{i}"), move |sim: &Sim| {
                        let c = sim.stats().counter("t.work");
                        let s = sim.clone();
                        sim.run_until(async move {
                            for _ in 0..=i {
                                c.inc();
                                s.sleep(simkit::SimDuration::from_millis(2)).await;
                            }
                        });
                    })
                })
                .collect();
            Runner::new(jobs, Some(&sink)).run(plans);
            sink.timeline_json("test")
        };
        let serial = sampled(1);
        let parallel = sampled(4);
        assert_eq!(serial, parallel, "timelines are jobs-invariant");
        assert!(serial.contains("\"t.work\""), "{serial}");
        assert!(serial.contains(crate::TIMELINE_SCHEMA));
    }
}
