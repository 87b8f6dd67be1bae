//! Span traces.
//!
//! A [`Trace`] records labelled `[start, end)` intervals on a resource.
//! The MPI-layer tests use traces to *prove* that the pipelined schemes
//! really overlap host work with network time (e.g. that during a
//! BC-SPUP transfer the sender CPU's `pack` spans intersect the link's
//! transmission spans), rather than trusting the aggregate numbers.

use crate::time::Time;

/// One labelled interval of resource occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Interval start (inclusive), virtual ns.
    pub start: Time,
    /// Interval end (exclusive), virtual ns.
    pub end: Time,
    /// Static label, e.g. `"pack"`, `"wire"`, `"unpack"`.
    pub label: &'static str,
}

impl Span {
    /// True when this span and `other` share at least one instant.
    /// Empty (zero-length) spans overlap nothing.
    pub fn overlaps(&self, other: &Span) -> bool {
        !self.is_empty() && !other.is_empty() && self.start < other.end && other.start < self.end
    }

    /// Span length in nanoseconds.
    pub fn len(&self) -> Time {
        self.end - self.start
    }

    /// True for an empty (zero-length) span.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// An append-only list of spans, recorded in chronological order of
/// reservation.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a span. The first record reserves a block of capacity
    /// up front: traces sit on simulation hot paths (every resource
    /// reservation lands here), so growth must not dribble out one
    /// doubling at a time.
    pub fn record(&mut self, start: Time, end: Time, label: &'static str) {
        debug_assert!(start <= end, "span must not be inverted");
        if self.spans.capacity() == 0 {
            self.spans.reserve(64);
        }
        self.spans.push(Span { start, end, label });
    }

    /// Clears recorded spans, keeping the buffer's capacity. A reset
    /// trace records exactly like a fresh one — used by world recycling
    /// (one cluster reused across sweep points) so re-tracing a run
    /// allocates nothing.
    pub fn reset(&mut self) {
        self.spans.clear();
    }

    /// All recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans whose label equals `label`.
    pub fn with_label<'a>(&'a self, label: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.label == label)
    }

    /// Total busy time carried by spans with the given label.
    pub fn busy_with_label(&self, label: &str) -> Time {
        self.with_label(label).map(|s| s.len()).sum()
    }

    /// Total virtual time during which a span from `self` with label `a`
    /// overlaps a span from `other` with label `b`. This is the measure
    /// of pipelining between two resources.
    pub fn overlap_with(&self, a: &str, other: &Trace, b: &str) -> Time {
        let mut total = 0;
        for sa in self.with_label(a) {
            for sb in other.with_label(b) {
                let lo = sa.start.max(sb.start);
                let hi = sa.end.min(sb.end);
                if lo < hi {
                    total += hi - lo;
                }
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_overlap_rules() {
        let a = Span {
            start: 0,
            end: 10,
            label: "a",
        };
        let b = Span {
            start: 5,
            end: 15,
            label: "b",
        };
        let c = Span {
            start: 10,
            end: 20,
            label: "c",
        };
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c)); // touching endpoints do not overlap
        assert!(b.overlaps(&c));
    }

    #[test]
    fn label_filter_and_busy() {
        let mut t = Trace::new();
        t.record(0, 10, "pack");
        t.record(10, 30, "wire");
        t.record(30, 35, "pack");
        assert_eq!(t.with_label("pack").count(), 2);
        assert_eq!(t.busy_with_label("pack"), 15);
        assert_eq!(t.busy_with_label("wire"), 20);
        assert_eq!(t.busy_with_label("unpack"), 0);
    }

    #[test]
    fn cross_trace_overlap() {
        let mut cpu = Trace::new();
        cpu.record(0, 10, "pack");
        cpu.record(20, 30, "pack");
        let mut link = Trace::new();
        link.record(5, 25, "wire");
        // pack[0..10] overlaps wire for 5, pack[20..30] overlaps for 5.
        assert_eq!(cpu.overlap_with("pack", &link, "wire"), 10);
    }

    #[test]
    fn no_overlap_for_disjoint_labels() {
        let mut a = Trace::new();
        a.record(0, 100, "x");
        let mut b = Trace::new();
        b.record(0, 100, "y");
        assert_eq!(a.overlap_with("nope", &b, "y"), 0);
        assert_eq!(a.overlap_with("x", &b, "nope"), 0);
    }

    #[test]
    fn zero_length_span() {
        let s = Span {
            start: 5,
            end: 5,
            label: "z",
        };
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        let other = Span {
            start: 0,
            end: 10,
            label: "w",
        };
        assert!(!s.overlaps(&other));
    }
}
