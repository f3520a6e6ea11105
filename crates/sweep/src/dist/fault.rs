//! Deterministic fault injection for the distributed sweep runtime.
//!
//! A [`FaultPlan`] is a comma-separated list of scripted failures,
//! addressed by *counts within the run* — never by the clock — so the
//! same plan replays the same failure schedule on every execution:
//!
//! ```text
//! kill:w0@lease2        worker 0 exits on the 2nd lease it receives
//! kill:lease3           whichever worker receives global lease id 3 exits
//! drop:result@1         the 1st RESULT message vanishes in transit
//! dup:result@2          the 2nd RESULT is delivered twice
//! corrupt:heartbeat@4   the 4th HEARTBEAT arrives with a bad checksum
//! delay:result@1:900    the 1st RESULT is delivered 900 ms late
//! lie:result@1          the 1st RESULT carries a tampered (but
//!                       well-formed) blob — the byzantine case
//! ```
//!
//! Kill entries are applied by the *worker* (the plan ships in the
//! `SPEC` handshake); message entries are applied by a [`FaultFilter`]
//! sitting on the receive path. Message ordinals are 1-based and
//! counted per verb across the whole run; a duplicated message is
//! itself counted, so `dup:result@1,lie:result@2` delivers the first
//! result honestly and its duplicate tampered — the schedule that
//! exercises the mismatch-abort path.

use crate::checkpoint::Checkpoint;
use crate::dist::protocol::{Msg, Verb};
use std::collections::BTreeMap;

/// One scripted worker death.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Kill {
    /// Worker `worker` exits upon receiving its `ordinal`-th lease
    /// (1-based, counted per worker *process* — a respawned worker
    /// starts counting again, so this entry also scripts persistent
    /// failures that exhaust the respawn budget).
    WorkerOrdinal {
        /// Worker slot id.
        worker: u64,
        /// 1-based per-process lease count that triggers the death.
        ordinal: u64,
    },
    /// Whichever worker receives global lease id `lease` exits.
    GlobalLease {
        /// Global lease id (1-based, ascending issue order).
        lease: u64,
    },
}

/// One scripted message fault: the `nth` message of `verb` (1-based,
/// counted across the run) gets `action`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MsgFault {
    /// Which verb the count addresses.
    pub verb: Verb,
    /// 1-based ordinal among messages of that verb.
    pub nth: u64,
    /// What happens to it.
    pub action: FaultAction,
}

/// What a matched [`MsgFault`] does to its message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// Never delivered.
    Drop,
    /// Delivered twice (the copy is counted as a further message and
    /// can match later entries).
    Dup,
    /// Delivered as an undecodable frame (checksum failure at the
    /// receiver).
    Corrupt,
    /// Delivered after this many extra milliseconds.
    Delay(u64),
    /// Delivered with a well-formed but tampered payload (only
    /// meaningful for `RESULT`; other verbs pass unchanged).
    Lie,
}

/// A parsed, replayable failure schedule.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Scripted worker deaths.
    pub kills: Vec<Kill>,
    /// Scripted message faults.
    pub msgs: Vec<MsgFault>,
}

impl FaultPlan {
    /// The empty plan: no injected faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.kills.is_empty() && self.msgs.is_empty()
    }

    /// Parses the plan grammar (see module docs). The empty string is
    /// the empty plan.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed entry.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::none();
        for entry in text.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let (kind, rest) = entry
                .split_once(':')
                .ok_or_else(|| format!("fault entry `{entry}` has no `kind:` prefix"))?;
            match kind {
                "kill" => plan.kills.push(parse_kill(entry, rest)?),
                "drop" | "dup" | "corrupt" | "lie" => {
                    let (verb, nth) = parse_verb_at(entry, rest)?;
                    let action = match kind {
                        "drop" => FaultAction::Drop,
                        "dup" => FaultAction::Dup,
                        "corrupt" => FaultAction::Corrupt,
                        _ => FaultAction::Lie,
                    };
                    plan.msgs.push(MsgFault { verb, nth, action });
                }
                "delay" => {
                    let (spec, ms) = rest
                        .rsplit_once(':')
                        .ok_or_else(|| format!("delay entry `{entry}` needs `:<ms>`"))?;
                    let ms = ms
                        .parse()
                        .map_err(|_| format!("bad delay milliseconds in `{entry}`"))?;
                    let (verb, nth) = parse_verb_at(entry, spec)?;
                    plan.msgs.push(MsgFault {
                        verb,
                        nth,
                        action: FaultAction::Delay(ms),
                    });
                }
                _ => return Err(format!("unknown fault kind `{kind}` in `{entry}`")),
            }
        }
        Ok(plan)
    }

    /// Canonical text form; `parse(to_text())` round-trips.
    pub fn to_text(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        for k in &self.kills {
            parts.push(match k {
                Kill::WorkerOrdinal { worker, ordinal } => format!("kill:w{worker}@lease{ordinal}"),
                Kill::GlobalLease { lease } => format!("kill:lease{lease}"),
            });
        }
        for m in &self.msgs {
            let at = format!("{}@{}", m.verb.name(), m.nth);
            parts.push(match m.action {
                FaultAction::Drop => format!("drop:{at}"),
                FaultAction::Dup => format!("dup:{at}"),
                FaultAction::Corrupt => format!("corrupt:{at}"),
                FaultAction::Delay(ms) => format!("delay:{at}:{ms}"),
                FaultAction::Lie => format!("lie:{at}"),
            });
        }
        parts.join(",")
    }

    /// Whether a worker receiving `(global lease id, per-process
    /// ordinal)` is scripted to die.
    pub fn kills(&self, worker: u64, lease: u64, ordinal: u64) -> bool {
        self.kills.iter().any(|k| match *k {
            Kill::WorkerOrdinal {
                worker: w,
                ordinal: o,
            } => w == worker && o == ordinal,
            Kill::GlobalLease { lease: l } => l == lease,
        })
    }
}

fn parse_kill(entry: &str, rest: &str) -> Result<Kill, String> {
    if let Some(lease) = rest.strip_prefix("lease") {
        let lease = lease
            .parse()
            .map_err(|_| format!("bad lease id in `{entry}`"))?;
        return Ok(Kill::GlobalLease { lease });
    }
    let (worker, ordinal) = rest
        .strip_prefix('w')
        .and_then(|r| r.split_once("@lease"))
        .ok_or_else(|| format!("kill entry `{entry}` is neither `w<k>@lease<j>` nor `lease<j>`"))?;
    Ok(Kill::WorkerOrdinal {
        worker: worker
            .parse()
            .map_err(|_| format!("bad worker id in `{entry}`"))?,
        ordinal: ordinal
            .parse()
            .map_err(|_| format!("bad lease ordinal in `{entry}`"))?,
    })
}

fn parse_verb_at(entry: &str, rest: &str) -> Result<(Verb, u64), String> {
    let (verb, nth) = rest
        .split_once('@')
        .ok_or_else(|| format!("fault entry `{entry}` needs `<verb>@<n>`"))?;
    Ok((
        Verb::parse(verb)?,
        nth.parse()
            .map_err(|_| format!("bad message ordinal in `{entry}`"))?,
    ))
}

/// How a filtered message reaches (or fails to reach) the receiver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Delivery {
    /// Delivered normally.
    Now(Msg),
    /// Arrives as an undecodable frame — the receiver sees a checksum
    /// failure, never the message.
    Corrupt,
    /// Delivered after the extra delay.
    After(u64, Msg),
}

/// Stateful per-run message filter applying a plan's [`MsgFault`]s.
#[derive(Debug)]
pub struct FaultFilter {
    plan: FaultPlan,
    counts: BTreeMap<Verb, u64>,
}

impl FaultFilter {
    /// A filter at the start of a run (all ordinals at zero).
    pub fn new(plan: &FaultPlan) -> Self {
        Self {
            plan: plan.clone(),
            counts: BTreeMap::new(),
        }
    }

    /// Passes one message through the schedule, returning zero or more
    /// deliveries. Duplicates re-enter the filter and consume the next
    /// ordinal of their verb.
    pub fn apply(&mut self, msg: Msg) -> Vec<Delivery> {
        let verb = msg.verb();
        let n = self.counts.entry(verb).or_insert(0);
        *n += 1;
        let n = *n;
        let hit = self
            .plan
            .msgs
            .iter()
            .find(|f| f.verb == verb && f.nth == n)
            .map(|f| f.action.clone());
        match hit {
            None => vec![Delivery::Now(msg)],
            Some(FaultAction::Drop) => vec![],
            Some(FaultAction::Corrupt) => vec![Delivery::Corrupt],
            Some(FaultAction::Delay(ms)) => vec![Delivery::After(ms, msg)],
            Some(FaultAction::Lie) => vec![Delivery::Now(tamper(msg))],
            Some(FaultAction::Dup) => {
                let mut out = vec![Delivery::Now(msg.clone())];
                out.extend(self.apply(msg));
                out
            }
        }
    }
}

/// Tampers a RESULT blob while keeping it well-formed: the first
/// cell's `trials` count is bumped, so the blob parses and merges
/// cleanly but is byte-unequal to the honest one — exactly what the
/// first-valid-result-wins duplicate check must catch. Non-RESULT
/// messages pass unchanged.
fn tamper(msg: Msg) -> Msg {
    match msg {
        Msg::Result { lease, shard, blob } => {
            let blob = match Checkpoint::parse(&blob) {
                Ok(mut ck) => {
                    if let Some(agg) = ck.shards.values_mut().next() {
                        agg.trials += 1;
                    }
                    ck.to_text()
                }
                Err(_) => format!("{blob}!"),
            };
            Msg::Result { lease, shard, blob }
        }
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        let text = "kill:w0@lease2,kill:lease3,drop:result@1,dup:result@2,\
                    corrupt:heartbeat@4,delay:result@1:900,lie:result@1";
        let plan = FaultPlan::parse(text).unwrap();
        assert_eq!(plan.kills.len(), 2);
        assert_eq!(plan.msgs.len(), 5);
        assert_eq!(FaultPlan::parse(&plan.to_text()).unwrap(), plan);
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::none());
        assert_eq!(FaultPlan::parse("  ").unwrap(), FaultPlan::none());
    }

    #[test]
    fn rejects_malformed_entries() {
        for (bad, needle) in [
            ("explode", "no `kind:`"),
            ("kill:leaseX", "bad lease id"),
            ("kill:w1", "neither"),
            ("drop:result", "needs `<verb>@<n>`"),
            ("drop:gossip@1", "unknown message verb"),
            ("delay:result@1", "needs `:<ms>`"),
            ("warp:result@1", "unknown fault kind"),
        ] {
            let err = FaultPlan::parse(bad).unwrap_err();
            assert!(err.contains(needle), "`{bad}` → `{err}`");
        }
    }

    #[test]
    fn kill_matching() {
        let plan = FaultPlan::parse("kill:w1@lease2,kill:lease5").unwrap();
        assert!(plan.kills(1, 9, 2), "per-worker ordinal");
        assert!(!plan.kills(1, 9, 1));
        assert!(!plan.kills(0, 9, 2), "other worker unaffected");
        assert!(plan.kills(3, 5, 1), "global lease id");
        assert!(!plan.kills(3, 6, 1));
    }

    #[test]
    fn filter_counts_per_verb() {
        let plan = FaultPlan::parse("drop:result@2,delay:heartbeat@1:50").unwrap();
        let mut f = FaultFilter::new(&plan);
        let hb = Msg::Heartbeat {
            worker: 0,
            lease: 1,
        };
        let res = Msg::Result {
            lease: 1,
            shard: 0,
            blob: "b".into(),
        };
        assert_eq!(
            f.apply(hb.clone()),
            vec![Delivery::After(50, hb.clone())],
            "1st heartbeat delayed"
        );
        assert_eq!(f.apply(hb.clone()), vec![Delivery::Now(hb)]);
        assert_eq!(f.apply(res.clone()), vec![Delivery::Now(res.clone())]);
        assert_eq!(f.apply(res.clone()), vec![], "2nd result dropped");
        assert_eq!(f.apply(res.clone()), vec![Delivery::Now(res)]);
    }

    #[test]
    fn dup_then_lie_tampers_the_copy() {
        let mut ck = Checkpoint::new(7, 4);
        ck.shards.insert(2, crate::CellAggregate::new());
        let honest = Msg::Result {
            lease: 1,
            shard: 0,
            blob: ck.to_text(),
        };
        let plan = FaultPlan::parse("dup:result@1,lie:result@2").unwrap();
        let mut f = FaultFilter::new(&plan);
        let out = f.apply(honest.clone());
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], Delivery::Now(honest.clone()));
        match &out[1] {
            Delivery::Now(Msg::Result { blob, .. }) => {
                let Msg::Result { blob: orig, .. } = &honest else {
                    unreachable!()
                };
                assert_ne!(blob, orig, "copy must be byte-unequal");
                Checkpoint::parse(blob).expect("tampered blob stays well-formed");
            }
            other => panic!("expected tampered result, got {other:?}"),
        }
    }
}
