//! Summary statistics and the span self-time arithmetic.

/// Median of `values` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Interquartile mean: the mean of the middle half of `values` (all of
/// them below four samples); `None` when empty. Unlike the median it
/// moves smoothly when samples fall into two clusters, as they do on a
/// host whose shared cores switch between two speeds.
pub fn iqm(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    let middle = &sorted[cut..sorted.len() - cut];
    Some(middle.iter().sum::<f64>() / middle.len() as f64)
}

/// Nearest-rank percentile `p` (in `(0, 1)`) of `values`, reported only
/// when at least ten samples lie beyond it; a tail estimate from fewer
/// is one or two outliers, not a percentile.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let n = values.len();
    if n == 0 || !(0.0..1.0).contains(&p) {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).max(1);
    if n - rank < 10 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// One recorded span: a half-open interval `[start, end)` in
/// nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name (`engine.check`, `wal.fsync`, ...).
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The workload operation the span belongs to.
    pub op: u64,
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p].push((span.start, span.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = span.start;
            for &(s, e) in kids.iter() {
                let s = s.max(cursor);
                let e = e.min(span.end);
                if e > s {
                    covered += e - s;
                    cursor = e;
                }
            }
            (span.end - span.start).saturating_sub(covered)
        })
        .collect()
}

/// Inclusive time (µs) of the top-level spans `keep` selects, summed per
/// op: the engine time behind each replayed request.
pub fn per_op_us(spans: &[Span], keep: impl Fn(&Span) -> bool) -> Vec<f64> {
    let mut by_op: std::collections::BTreeMap<u64, f64> = Default::default();
    for s in spans.iter().filter(|s| s.parent.is_none() && keep(s)) {
        *by_op.entry(s.op).or_default() += (s.end - s.start) as f64 / 1e3;
    }
    by_op.into_values().collect()
}

/// The per-layer ledger of one traced run: self time summed by span
/// name, and the part of `total_ns` no span covers (`unattributed`).
/// By construction the layer times plus `unattributed` equal the total.
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    /// `(layer, calls, self ns)`, sorted by layer name.
    pub layers: Vec<(&'static str, u64, u64)>,
    /// Wall time of the traced run, ns.
    pub total_ns: u64,
    /// `total_ns` minus every layer's self time, ns.
    pub unattributed_ns: u64,
}

impl Ledger {
    /// Builds the ledger of `spans` over a run of `total_ns`.
    pub fn new(spans: &[Span], total_ns: u64) -> Ledger {
        let mut layers: std::collections::BTreeMap<&'static str, (u64, u64)> = Default::default();
        for (span, own) in spans.iter().zip(self_times(spans)) {
            let entry = layers.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += own;
        }
        let attributed: u64 = layers.values().map(|&(_, ns)| ns).sum();
        Ledger {
            layers: layers
                .into_iter()
                .map(|(name, (calls, ns))| (name, calls, ns))
                .collect(),
            total_ns,
            unattributed_ns: total_ns.saturating_sub(attributed),
        }
    }

    /// `(calls, self seconds)` of one layer (zeros when it never ran).
    pub fn layer(&self, name: &str) -> (u64, f64) {
        self.layers
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or((0, 0.0), |&(_, calls, ns)| (calls, ns as f64 / 1e9))
    }

    /// Mean self seconds per call of one layer (0 when it never ran).
    pub fn per_call(&self, name: &str) -> f64 {
        let (calls, secs) = self.layer(name);
        if calls == 0 {
            0.0
        } else {
            secs / calls as f64
        }
    }

    /// Share of the total no layer accounts for.
    pub fn unattributed_share(&self) -> f64 {
        self.unattributed_ns as f64 / self.total_ns.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn iqm_averages_the_middle_half() {
        assert_eq!(
            iqm(&[100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0]),
            Some(3.5)
        );
        assert_eq!(iqm(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(iqm(&[]), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples has exactly ten beyond it.
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 0.99), Some(990.0));
        // One sample fewer leaves only nine beyond: no p99.
        assert_eq!(percentile(&thousand[..999], 0.99), None);
        // The median of 21 samples has ten beyond it; of 19, nine.
        let small: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(percentile(&small, 0.5), Some(11.0));
        assert_eq!(percentile(&small[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut values: Vec<f64> = (1..=1000).map(f64::from).collect();
        values.reverse();
        assert_eq!(percentile(&values, 0.99), Some(990.0));
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("op", 0, 100, None),
            span("child", 10, 40, Some(0)),
            // Overlaps the first child by 10: covered once.
            span("child", 30, 50, Some(0)),
            span("grandchild", 12, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![60, 22, 20, 8]);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![span("op", 10, 20, None), span("late", 15, 30, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 15]);
    }

    #[test]
    fn ledger_layers_plus_unattributed_equal_total() {
        let spans = vec![
            span("engine.upsert", 0, 50, None),
            span("wal.fsync", 20, 45, Some(0)),
            span("engine.check", 60, 90, None),
            span("engine.upsert", 100, 110, None),
        ];
        let ledger = Ledger::new(&spans, 120);
        assert_eq!(
            ledger.layers,
            vec![
                ("engine.check", 1, 30),
                ("engine.upsert", 2, 35),
                ("wal.fsync", 1, 25)
            ]
        );
        assert_eq!(ledger.unattributed_ns, 30);
        let attributed: u64 = ledger.layers.iter().map(|l| l.2).sum();
        assert_eq!(attributed + ledger.unattributed_ns, ledger.total_ns);
        assert_eq!(ledger.layer("engine.upsert"), (2, 35e-9));
        assert!((ledger.per_call("engine.upsert") - 17.5e-9).abs() < 1e-15);
        assert_eq!(ledger.layer("fleet.merge"), (0, 0.0));
        assert!((ledger.unattributed_share() - 0.25).abs() < 1e-12);
    }
}
