//! One fault vocabulary for both engines.
//!
//! A [`Fault`] strikes joiner `task` after its message `after`, where the
//! task's message n is the n-th engine message the dispatcher routed to
//! it — one record, one batch or one barrier alike. Both engines count it
//! already: a topology joiner as its processed tuples, the cluster as the
//! `Data` frame's wire seq (message n travels as seq n − 1).
//! [`crate::JoinSpec::faults`] carries the list to either engine; one
//! that cannot honour a kind refuses it by name before the run starts.

use stormlite::FaultPlan;

/// One injected fault: `kind` strikes joiner `task` after its message
/// `after`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// The joiner struck.
    pub task: usize,
    /// The last of the task's messages the fault lets through untouched.
    pub after: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// What a [`Fault`] does. The window kinds cover the task's messages
/// `after + 1 ..= after + len` on its cluster wire; the topology has no
/// wire and refuses them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The incarnation ends between messages `after` and `after + 1`, if
    /// one is routed: the topology rebuilds the joiner, the cluster kills
    /// the node once `after` is acked and `after + 1` framed.
    Crash,
    /// Frames are held on the launcher, released in order once a later
    /// frame passes; a respawn drops them.
    Stall {
        /// Messages covered.
        len: u64,
    },
    /// Frames are dropped; `two_way` also holds the node's frames.
    Partition {
        /// Messages covered.
        len: u64,
        /// Cut the node → launcher direction too.
        two_way: bool,
    },
    /// One bit of each frame is flipped — the data frame, or with
    /// `inbound` each frame answering the message.
    Corrupt {
        /// Messages covered.
        len: u64,
        /// Flip the node's answers instead.
        inbound: bool,
    },
}

impl FaultKind {
    /// The kind's name, as refusals spell it.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Crash => "Crash",
            FaultKind::Stall { .. } => "Stall",
            FaultKind::Partition { .. } => "Partition",
            FaultKind::Corrupt { .. } => "Corrupt",
        }
    }

    /// Whether honouring the kind takes a wire: every kind but a crash.
    pub fn needs_wire(self) -> bool {
        self != FaultKind::Crash
    }

    fn len(self) -> u64 {
        match self {
            FaultKind::Crash => 0,
            FaultKind::Stall { len }
            | FaultKind::Partition { len, .. }
            | FaultKind::Corrupt { len, .. } => len,
        }
    }
}

impl Fault {
    /// A crash of `task` after its message `after`.
    pub fn crash(task: usize, after: u64) -> Self {
        let kind = FaultKind::Crash;
        Self { task, after, kind }
    }

    fn covers(&self, n: u64) -> bool {
        n > self.after && n <= self.after.saturating_add(self.kind.len())
    }
}

/// The topology's crash plan for `faults`, or the refusal naming the
/// first kind it cannot honour: the topology has no wire for a window.
pub fn topology_plan(faults: &[Fault]) -> Result<FaultPlan, String> {
    faults.iter().try_fold(FaultPlan::new(), |plan, f| {
        if f.kind.needs_wire() {
            return Err(format!(
                "fault {} needs a wire; the topology engine honours only Crash",
                f.kind.name()
            ));
        }
        Ok(plan.crash("joiner", f.task, f.after))
    })
}

/// The faults of one cluster wire: crash points not yet fired (latest
/// first), windows not yet closed, and what a stall holds. A wire no fault
/// names has none, so an unfaulted frame or ack pays one branch.
#[derive(Debug, Default)]
pub(crate) struct Gate {
    crashes: Vec<u64>,
    windows: Vec<Fault>,
    held: Vec<Vec<u8>>,
    /// The highest message whose data frame was gated.
    sent: u64,
    /// The message the last inbound frame answered.
    answered: u64,
    /// Frames held by stalls, and dropped by partitions, so far.
    pub(crate) stalled: u64,
    pub(crate) dropped: u64,
}

impl Gate {
    /// The gate of `task`'s wire, if a fault names the task.
    pub(crate) fn new(faults: &[Fault], task: usize) -> Option<Box<Self>> {
        let mut gate = Self::default();
        for f in faults.iter().filter(|f| f.task == task) {
            match f.kind {
                FaultKind::Crash => gate.crashes.push(f.after),
                _ => gate.windows.push(*f),
            }
        }
        gate.crashes.sort_unstable_by(|a, b| b.cmp(a));
        (!gate.crashes.is_empty() || !gate.windows.is_empty()).then(|| Box::new(gate))
    }

    /// Whether a crash is due with the first `acked` messages acked and
    /// `framed` framed; every crash due fires at once.
    pub(crate) fn crash_due(&mut self, acked: u64, framed: u64) -> bool {
        let due = |n: &u64| acked >= *n && framed > *n;
        let fired = self.crashes.last().is_some_and(due);
        while self.crashes.last().is_some_and(due) {
            self.crashes.pop();
        }
        fired
    }

    fn open(&self, n: u64, kind: impl Fn(FaultKind) -> bool) -> bool {
        self.windows.iter().any(|f| kind(f.kind) && f.covers(n))
    }

    /// What goes on the wire for `frame`, in order: the data frame of
    /// message `n`, which a corrupt window flips a bit of (keyed on `n`),
    /// or with `None` a heartbeat, gated at the last message framed. A
    /// stall holds the frame, a partition drops it; otherwise what a
    /// stall held goes first, then the frame.
    pub(crate) fn pass(&mut self, message: Option<u64>, mut frame: Vec<u8>) -> Vec<Vec<u8>> {
        let n = message.unwrap_or(self.sent);
        if message.is_some() {
            self.sent = self.sent.max(n);
            if self.open(n, |k| {
                matches!(k, FaultKind::Corrupt { inbound: false, .. })
            }) {
                flip(&mut frame, n);
            }
        }
        if self.open(n, |k| matches!(k, FaultKind::Stall { .. })) {
            self.stalled += 1;
            self.held.push(frame);
            return Vec::new();
        }
        if self.open(n, |k| matches!(k, FaultKind::Partition { .. })) {
            self.dropped += 1;
            return Vec::new();
        }
        let mut out = std::mem::take(&mut self.held);
        out.push(frame);
        out
    }

    /// Whether a two-way partition holds the node's frames now.
    pub(crate) fn inbound_blocked(&self) -> bool {
        self.open(self.sent, |k| {
            matches!(k, FaultKind::Partition { two_way: true, .. })
        })
    }

    /// Flips a bit of a frame answering message `n` in an inbound window.
    pub(crate) fn inbound(&mut self, n: u64, frame: &mut [u8]) {
        self.answered = n;
        if self.open(n, |k| matches!(k, FaultKind::Corrupt { inbound: true, .. })) {
            flip(frame, n);
        }
    }

    /// The node was replaced: every window that has opened — on the
    /// answers for inbound corruption, on the data frames otherwise —
    /// closes, and what a stall held is dropped. A resent frame keeps its
    /// seq, below every window left, so it passes clean.
    pub(crate) fn heal(&mut self) {
        let (sent, answered) = (self.sent, self.answered);
        self.windows.retain(|f| match f.kind {
            FaultKind::Corrupt { inbound: true, .. } => f.after >= answered,
            _ => f.after >= sent,
        });
        self.held.clear();
    }
}

fn flip(frame: &mut [u8], n: u64) {
    if !frame.is_empty() {
        frame[(n as usize * 31) % frame.len()] ^= 1 << (n % 8);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_window_keys_on_the_seq_and_a_respawn_closes_what_opened() {
        let faults = [
            Fault {
                task: 0,
                after: 2,
                kind: FaultKind::Stall { len: 2 },
            },
            Fault {
                task: 0,
                after: 8,
                kind: FaultKind::Partition {
                    len: 1,
                    two_way: false,
                },
            },
        ];
        assert!(Gate::new(&faults, 1).is_none());
        let mut gate = Gate::new(&faults, 0).unwrap();
        let frame = |n: u8| vec![n];
        assert_eq!(gate.pass(Some(1), frame(1)), [frame(1)]);
        assert!(gate.pass(Some(3), frame(3)).is_empty());
        assert!(
            gate.pass(None, frame(0)).is_empty(),
            "a heartbeat waits too"
        );
        // The respawn drops what was held, and the resend of 3 passes.
        gate.heal();
        assert_eq!(gate.pass(Some(3), frame(3)), [frame(3)]);
        assert_eq!(gate.pass(Some(4), frame(4)), [frame(4)]);
        assert!(
            gate.pass(Some(9), frame(9)).is_empty(),
            "a later window stays"
        );
        assert_eq!((gate.stalled, gate.dropped), (2, 1));
    }

    #[test]
    fn a_crash_fires_once_its_message_is_acked_and_the_next_framed() {
        let mut gate = Gate::new(&[Fault::crash(0, 4), Fault::crash(0, 0)], 0).unwrap();
        assert!(!gate.crash_due(0, 0), "nothing routed yet");
        assert!(gate.crash_due(0, 1));
        assert!(!gate.crash_due(4, 4), "message 5 not framed");
        assert!(gate.crash_due(4, 5));
        assert!(!gate.crash_due(9, 9));
    }

    #[test]
    fn corruption_flips_the_bit_its_seq_names() {
        let faults = [
            Fault {
                task: 0,
                after: 0,
                kind: FaultKind::Corrupt {
                    len: 1,
                    inbound: false,
                },
            },
            Fault {
                task: 0,
                after: 1,
                kind: FaultKind::Corrupt {
                    len: 1,
                    inbound: true,
                },
            },
        ];
        let mut gate = Gate::new(&faults, 0).unwrap();
        assert_eq!(gate.pass(Some(1), vec![0; 4]), [vec![0, 0, 0, 2]]);
        assert_eq!(gate.pass(Some(2), vec![0; 4]), [vec![0; 4]]);
        let mut answer = vec![0u8; 4];
        gate.inbound(1, &mut answer);
        assert_eq!(answer, [0; 4]);
        gate.inbound(2, &mut answer);
        assert_eq!(answer, [0, 0, 4, 0]);
        gate.heal();
        let mut again = vec![0u8; 4];
        gate.inbound(2, &mut again);
        assert_eq!(again, [0; 4], "the respawn closed the window");
    }
}
