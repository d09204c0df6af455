//! Tuple-space lookup index for [`FlowTable`](crate::FlowTable).
//!
//! A linear flow-table scan pays O(total rules) per packet; at fig8 scale
//! (300 participants, tens of thousands of rules) that dominates the
//! simulated data plane. This module buckets rules by their *match
//! signature* — the set of fields a rule constrains and whether each
//! constraint is exact or a prefix (see [`sdx_policy::MatchSignature`]) —
//! the tuple-space search that Open vSwitch's megaflow classifier uses,
//! with one tuple per signature instead of one per mask.
//!
//! Inside a bucket every rule constrains the same fields the same way, so:
//!
//! * the **exact** fields form a hash key (the packet's values on those
//!   fields select a group in O(1));
//! * at most one **prefix** field (`DstIp` preferred — SDX rules
//!   overwhelmingly constrain destination prefixes) keys a per-group
//!   [`PrefixTrie`], walked along the packet's containing-prefix chain;
//! * the rare remaining prefix constraints (e.g. a rule matching both
//!   `SrcIp` and `DstIp` ranges) ride on each entry as *residual* patterns
//!   checked directly.
//!
//! Buckets are probed in descending order of their highest priority, and
//! probing stops as soon as the current best candidate outranks every
//! remaining bucket's ceiling — most packets touch 1–3 buckets regardless
//! of table size.
//!
//! The index is maintained incrementally on [`insert`](TableIndex::insert)
//! (the §4.3.2 fast path installs fragment rules constantly) and rebuilt from
//! scratch only on removal, which in the SDX workload happens orders of
//! magnitude less often than insertion or lookup.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use sdx_ip::PrefixTrie;
use sdx_policy::{Field, Match, MatchSignature, Packet, Pattern};

/// Size counters for a table's index (reported by the dataplane bench).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Distinct match signatures (tuple-space buckets).
    pub buckets: usize,
    /// Hash groups across all buckets (distinct exact-field value tuples).
    pub groups: usize,
    /// Rules indexed.
    pub rules: usize,
}

impl IndexStats {
    /// Component-wise sum (aggregating a pipeline of tables).
    pub fn merge(self, other: IndexStats) -> IndexStats {
        IndexStats {
            buckets: self.buckets + other.buckets,
            groups: self.groups + other.groups,
            rules: self.rules + other.rules,
        }
    }
}

/// A candidate rule inside a bucket: the arbitration key plus any prefix
/// constraints not covered by the bucket's trie field.
#[derive(Debug, Clone)]
struct Entry {
    priority: u32,
    /// Install sequence — the first-installed-wins tiebreak within a
    /// priority band, unique per rule within a table.
    seq: u64,
    /// Prefix constraints on fields other than the bucket's primary prefix
    /// field; empty for almost every SDX-compiled rule.
    residual: Box<[(Field, Pattern)]>,
}

impl Entry {
    fn key(&self) -> (u32, u64) {
        (self.priority, self.seq)
    }

    fn satisfied(&self, pkt: &Packet) -> bool {
        self.residual
            .iter()
            .all(|(f, pat)| pkt.get(*f).map(|v| pat.matches(v)).unwrap_or(false))
    }
}

/// Does candidate `a` beat candidate `b`? Higher priority wins; within a
/// priority, the earlier install (smaller sequence number) wins.
fn better(a: (u32, u64), b: (u32, u64)) -> bool {
    a.0 > b.0 || (a.0 == b.0 && a.1 < b.1)
}

/// Entries kept best-first: descending priority, ascending sequence.
fn push_sorted(entries: &mut Vec<Entry>, e: Entry) {
    let pos = entries.partition_point(|x| better(x.key(), e.key()));
    entries.insert(pos, e);
}

/// The per-group store: a plain candidate list when the signature has no
/// prefix field, a prefix trie keyed by the primary prefix field otherwise.
#[derive(Debug, Clone)]
enum Group {
    Flat(Vec<Entry>),
    Trie(PrefixTrie<Vec<Entry>>),
}

/// One tuple-space bucket: all rules sharing a match signature.
#[derive(Debug, Clone)]
struct Bucket {
    /// Fields hashed into the group key, in field order.
    exact_fields: Box<[Field]>,
    /// The trie-keyed prefix field, if the signature has prefix constraints.
    primary: Option<Field>,
    /// The highest priority of any rule in the bucket — the probe-order /
    /// early-exit bound. Monotonically non-decreasing under insertion (the
    /// whole index is rebuilt on removal).
    max_priority: u32,
    rules: usize,
    groups: HashMap<Box<[u64]>, Group>,
}

impl Bucket {
    /// The bucket's best candidate matching `pkt`, if any.
    fn lookup(&self, pkt: &Packet) -> Option<(u32, u64)> {
        // The exact-field values form the group key; a packet missing any
        // constrained header cannot match (matching absent headers is
        // false), so the bucket is skipped outright.
        let mut key = [0u64; Field::ALL.len()];
        for (i, f) in self.exact_fields.iter().enumerate() {
            key[i] = pkt.get(*f)?;
        }
        let group = self.groups.get(&key[..self.exact_fields.len()])?;
        match group {
            Group::Flat(entries) => {
                // Best-first order: the first satisfied entry wins.
                entries.iter().find(|e| e.satisfied(pkt)).map(Entry::key)
            }
            Group::Trie(trie) => {
                let field = self.primary.expect("trie group implies primary field");
                let addr = Ipv4Addr::from(pkt.get(field)? as u32);
                let mut best: Option<(u32, u64)> = None;
                // Every stored prefix containing the address can hold the
                // winner (a shorter prefix may carry a higher priority), so
                // walk the whole containing chain — at most 32 nodes.
                trie.walk(addr, |_prefix, entries| {
                    if let Some(e) = entries.iter().find(|e| e.satisfied(pkt)) {
                        if best.map(|b| better(e.key(), b)).unwrap_or(true) {
                            best = Some(e.key());
                        }
                    }
                });
                best
            }
        }
    }
}

/// The tuple-space index over one flow table's rules. Owned and kept in
/// sync by [`FlowTable`](crate::FlowTable); identifies rules by
/// `(priority, seq)`, which the table maps back to rule storage.
#[derive(Debug, Clone, Default)]
pub(crate) struct TableIndex {
    buckets: Vec<Bucket>,
    by_sig: HashMap<MatchSignature, usize>,
    /// Bucket indices sorted by descending `max_priority` — the probe order.
    order: Vec<usize>,
}

impl TableIndex {
    /// Drop every bucket.
    pub(crate) fn clear(&mut self) {
        self.buckets.clear();
        self.by_sig.clear();
        self.order.clear();
    }

    /// Index one rule. `seq` must be unique within the table and reflect
    /// install order (later installs get larger sequence numbers).
    pub(crate) fn insert(&mut self, m: &Match, priority: u32, seq: u64) {
        let sig = m.signature();
        let bi = match self.by_sig.get(&sig) {
            Some(&i) => i,
            None => {
                let prefix_fields: Vec<Field> = sig.prefix_fields().collect();
                let primary = prefix_fields
                    .iter()
                    .copied()
                    .find(|f| *f == Field::DstIp)
                    .or_else(|| prefix_fields.first().copied());
                let i = self.buckets.len();
                self.buckets.push(Bucket {
                    exact_fields: sig.exact_fields().collect(),
                    primary,
                    max_priority: priority,
                    rules: 0,
                    groups: HashMap::new(),
                });
                self.by_sig.insert(sig, i);
                self.order.push(i);
                i
            }
        };
        let bucket = &mut self.buckets[bi];
        let key: Box<[u64]> = bucket
            .exact_fields
            .iter()
            .map(|f| match m.get(*f) {
                Some(Pattern::Exact(v)) => *v,
                other => unreachable!("signature promised exact pattern, got {other:?}"),
            })
            .collect();
        let residual: Box<[(Field, Pattern)]> = m
            .iter()
            .filter(|(f, p)| matches!(p, Pattern::Prefix(_)) && Some(**f) != bucket.primary)
            .map(|(f, p)| (*f, *p))
            .collect();
        let entry = Entry {
            priority,
            seq,
            residual,
        };
        match bucket.primary {
            None => {
                let group = bucket
                    .groups
                    .entry(key)
                    .or_insert_with(|| Group::Flat(Vec::new()));
                let Group::Flat(entries) = group else {
                    unreachable!("flat bucket holds flat groups");
                };
                push_sorted(entries, entry);
            }
            Some(field) => {
                let Some(Pattern::Prefix(prefix)) = m.get(field) else {
                    unreachable!("signature promised prefix pattern on {field}");
                };
                let group = bucket
                    .groups
                    .entry(key)
                    .or_insert_with(|| Group::Trie(PrefixTrie::new()));
                let Group::Trie(trie) = group else {
                    unreachable!("prefix bucket holds trie groups");
                };
                match trie.get_mut(prefix) {
                    Some(entries) => push_sorted(entries, entry),
                    None => {
                        trie.insert(*prefix, vec![entry]);
                    }
                }
            }
        }
        bucket.max_priority = bucket.max_priority.max(priority);
        bucket.rules += 1;
        let buckets = &self.buckets;
        self.order
            .sort_by(|&a, &b| buckets[b].max_priority.cmp(&buckets[a].max_priority));
    }

    /// The best `(priority, seq)` candidate matching `pkt`, if any rule
    /// does. Probes buckets highest-ceiling first and stops as soon as the
    /// running best outranks every remaining ceiling; a bucket whose
    /// ceiling *equals* the running best must still be probed — it may hold
    /// an equal-priority rule installed earlier.
    pub(crate) fn lookup(&self, pkt: &Packet) -> Option<(u32, u64)> {
        let mut best: Option<(u32, u64)> = None;
        for &bi in &self.order {
            let bucket = &self.buckets[bi];
            if let Some((p, _)) = best {
                if bucket.max_priority < p {
                    break;
                }
            }
            if let Some(candidate) = bucket.lookup(pkt) {
                if best.map(|b| better(candidate, b)).unwrap_or(true) {
                    best = Some(candidate);
                }
            }
        }
        best
    }

    /// Size counters.
    pub(crate) fn stats(&self) -> IndexStats {
        IndexStats {
            buckets: self.buckets.len(),
            groups: self.buckets.iter().map(|b| b.groups.len()).sum(),
            rules: self.buckets.iter().map(|b| b.rules).sum(),
        }
    }
}
