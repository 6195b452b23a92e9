//! In-memory spans for the traced run: recorded around calls into each
//! layer, kept in memory while the run lasts and written out once at the
//! end.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval: a layer boundary crossed by one request (a tick
/// number or a daemon job id).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer name, as reported in the per-layer metrics.
    pub name: &'static str,
    /// Start, in nanoseconds since the trace's origin.
    pub start: u64,
    /// End, in nanoseconds since the trace's origin.
    pub end: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The tick number or job id the span belongs to.
    pub req: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }
}

/// A trace: spans on one clock.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

/// Total length of the union of `intervals` (which it sorts).
fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut open: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        match &mut open {
            Some((_, oe)) if s <= *oe => *oe = (*oe).max(e),
            _ => {
                if let Some((os, oe)) = open {
                    total += oe - os;
                }
                open = Some((s, e));
            }
        }
    }
    total + open.map_or(0, |(s, e)| e - s)
}

impl Spans {
    /// An empty trace whose clock starts at `origin`.
    pub fn new(origin: Instant) -> Self {
        Spans { origin, spans: Vec::new() }
    }

    /// Nanoseconds from the origin to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a span and return its index (the handle children name as
    /// their parent).
    pub fn push(
        &mut self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<usize>,
        req: u64,
    ) -> usize {
        debug_assert!(start <= end, "span {name} ends before it starts");
        self.spans.push(Span { name, start, end: end.max(start), parent, req });
        self.spans.len() - 1
    }

    /// All spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus the part of it covered by
    /// its children (overlapping children are counted once; a child
    /// sticking out of its parent is clipped).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let (cs, ce) = (s.start.max(parent.start), s.end.min(parent.end));
                if cs < ce {
                    children[p].push((cs, ce));
                }
            }
        }
        self.spans.iter().zip(&mut children).map(|(s, c)| s.len() - union_len(c)).collect()
    }

    /// Sum of the durations of every span called `name`.
    pub fn total(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).map(Span::len).sum()
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).count() as u64
    }

    /// Sum of the self times of every span called `name`.
    pub fn self_total(&self, name: &str) -> u64 {
        let selfs = self.self_times();
        self.spans.iter().zip(selfs).filter(|(s, _)| s.name == name).map(|(_, t)| t).sum()
    }

    /// The share of the window `[start, end)` that no span covers.
    pub fn unattributed_share(&self, start: u64, end: u64) -> f64 {
        let mut covered: Vec<(u64, u64)> = self
            .spans
            .iter()
            .map(|s| (s.start.max(start), s.end.min(end)))
            .filter(|(s, e)| s < e)
            .collect();
        let window = end.saturating_sub(start);
        if window == 0 {
            return 0.0;
        }
        (window - union_len(&mut covered)) as f64 / window as f64
    }

    /// Write the trace as CSV (`name,start_ns,end_ns,parent,req`).
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name,start_ns,end_ns,parent,req")?;
        for s in &self.spans {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            writeln!(out, "{},{},{},{},{}", s.name, s.start, s.end, parent, s.req)?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_counts_overlaps_once() {
        assert_eq!(union_len(&mut []), 0);
        assert_eq!(union_len(&mut [(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_len(&mut [(5, 6), (0, 10)]), 10);
        assert_eq!(union_len(&mut [(0, 5), (5, 8)]), 8);
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let mut t = Spans::new(Instant::now());
        let tick = t.push("tick", 100, 200, None, 7);
        t.push("decide", 110, 140, Some(tick), 7);
        // Overlaps the first child by 10 ns: 30 + 30 - 10 = 50 covered.
        t.push("emit", 130, 160, Some(tick), 7);
        // Sticks out of its parent: only 190..200 counts.
        t.push("ckpt", 190, 260, Some(tick), 7);
        let other = t.push("tick", 300, 310, None, 8);
        let selfs = t.self_times();
        assert_eq!(selfs[tick], 100 - 50 - 10);
        assert_eq!(selfs[other], 10);
        assert_eq!(selfs[1], 30, "a leaf's self time is its duration");
        assert_eq!(t.self_total("tick"), 40 + 10);
        assert_eq!(t.total("tick"), 110);
        assert_eq!(t.count("tick"), 2);
    }

    #[test]
    fn unattributed_share_is_the_uncovered_part_of_the_window() {
        let mut t = Spans::new(Instant::now());
        t.push("tick", 0, 40, None, 0);
        t.push("tick", 40, 80, None, 1);
        t.push("decide", 10, 20, Some(0), 0);
        assert!((t.unattributed_share(0, 100) - 0.2).abs() < 1e-12);
        assert_eq!(t.unattributed_share(0, 80), 0.0);
        assert_eq!(t.unattributed_share(5, 5), 0.0);
    }
}
