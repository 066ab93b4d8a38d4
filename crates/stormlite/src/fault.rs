//! Deterministic fault injection for topology runs.
//!
//! A [`FaultPlan`] tells [`Topology::run`](crate::Topology::run) to crash
//! specific bolt tasks at exact points in their input stream: task `t` of
//! component `c` dies immediately after fully processing `n` tuples, before
//! touching tuple `n + 1`. The crash is injected by the runtime, not the
//! bolt, so any bolt can be tested without instrumentation; the task is then
//! rebuilt from its factory and the in-flight tuple is delivered to the
//! fresh instance exactly once.
//!
//! Plans are deterministic by construction (explicit crash points) and
//! seedable via [`FaultPlan::crash_seeded`], which derives a crash point
//! from a `u64` seed so randomized test harnesses stay reproducible. An
//! empty plan adds no per-tuple work to the hot path beyond one branch on an
//! empty slice.

use crate::sim::mix;

/// SplitMix64 step + finalizer: enough to spread a test seed over tasks
/// and crash points without a rand dependency.
fn splitmix64(seed: u64) -> u64 {
    mix(seed.wrapping_add(0x9E37_79B9_7F4A_7C15))
}

/// One injected crash: `component` task `task` dies after fully processing
/// `after_tuples` data tuples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// Component name as registered with the topology.
    pub component: String,
    /// Task index within the component (`0 ..` parallelism).
    pub task: usize,
    /// Number of tuples the task fully processes before crashing. `0`
    /// crashes the task before it touches any input; a value past the end
    /// of the task's input never fires.
    pub after_tuples: u64,
}

/// A set of injected crashes for one topology run.
///
/// ```
/// use stormlite::FaultPlan;
///
/// let plan = FaultPlan::new()
///     .crash("joiner", 2, 150)
///     .crash_seeded("joiner", 4, 1000, 42);
/// assert_eq!(plan.specs().len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan (no injected faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an explicit crash point.
    pub fn crash(mut self, component: &str, task: usize, after_tuples: u64) -> Self {
        self.specs.push(FaultSpec {
            component: component.to_owned(),
            task,
            after_tuples,
        });
        self
    }

    /// Adds a crash whose task (`0 .. tasks`) and crash point
    /// (`0 .. max_after_tuples`) are derived deterministically from `seed`,
    /// so randomized harnesses reproduce exactly.
    pub fn crash_seeded(
        mut self,
        component: &str,
        tasks: usize,
        max_after_tuples: u64,
        seed: u64,
    ) -> Self {
        assert!(tasks >= 1, "component needs at least one task");
        assert!(max_after_tuples >= 1, "need a non-empty crash point range");
        let task = (splitmix64(seed) % tasks as u64) as usize;
        let after_tuples = splitmix64(seed.wrapping_add(1)) % max_after_tuples;
        self.specs.push(FaultSpec {
            component: component.to_owned(),
            task,
            after_tuples,
        });
        self
    }

    /// Whether the plan injects no faults.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// All planned crashes.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// Crash points for one task, sorted ascending.
    pub(crate) fn points_for(&self, component: &str, task: usize) -> Vec<u64> {
        let mut points: Vec<u64> = self
            .specs
            .iter()
            .filter(|s| s.component == component && s.task == task)
            .map(|s| s.after_tuples)
            .collect();
        points.sort_unstable();
        points
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn points_are_per_task_and_sorted() {
        let plan = FaultPlan::new()
            .crash("joiner", 1, 50)
            .crash("joiner", 0, 9)
            .crash("joiner", 1, 7)
            .crash("sink", 1, 3);
        assert_eq!(plan.points_for("joiner", 1), vec![7, 50]);
        assert_eq!(plan.points_for("joiner", 0), vec![9]);
        assert_eq!(plan.points_for("joiner", 2), Vec::<u64>::new());
        assert_eq!(plan.points_for("dispatcher", 0), Vec::<u64>::new());
    }

    #[test]
    fn seeded_crashes_are_deterministic_and_in_range() {
        for seed in 0..200u64 {
            let a = FaultPlan::new().crash_seeded("j", 5, 100, seed);
            let b = FaultPlan::new().crash_seeded("j", 5, 100, seed);
            assert_eq!(a, b);
            let s = &a.specs()[0];
            assert!(s.task < 5);
            assert!(s.after_tuples < 100);
        }
        // Different seeds should explore different crash points.
        let points: std::collections::BTreeSet<u64> = (0..50)
            .map(|seed| FaultPlan::new().crash_seeded("j", 5, 1000, seed).specs()[0].after_tuples)
            .collect();
        assert!(points.len() > 25, "seeded points barely vary: {points:?}");
    }

    #[test]
    fn empty_plan_reports_empty() {
        assert!(FaultPlan::new().is_empty());
        assert!(!FaultPlan::new().crash("x", 0, 1).is_empty());
    }
}
