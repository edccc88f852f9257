//! Percentiles, medians and the closure arithmetic.

/// The `q`-quantile (0 ≤ q ≤ 1) of `xs` by linear interpolation between
/// the closest ranks (rank `q·(n−1)`, zero-based). `None` when empty.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (rank - lo as f64))
}

pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

/// One layer's contribution to a closure: its self time, summed over
/// the run.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTime {
    pub name: String,
    pub self_s: f64,
}

/// The closure check: layer self times next to the end-to-end time they
/// should explain. Whatever no layer explains is `unattributed_s`, so
/// the layer sum plus the remainder equals the end-to-end time exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct Closure {
    pub end_to_end_s: f64,
    pub layers: Vec<LayerTime>,
    pub unattributed_s: f64,
}

impl Closure {
    pub fn new(end_to_end_s: f64, layers: Vec<LayerTime>) -> Closure {
        let sum: f64 = layers.iter().map(|l| l.self_s).sum();
        Closure {
            end_to_end_s,
            layers,
            unattributed_s: end_to_end_s - sum,
        }
    }

    pub fn layer_sum_s(&self) -> f64 {
        self.layers.iter().map(|l| l.self_s).sum()
    }

    /// The remainder as a share of the end-to-end time (the ROADMAP
    /// target is within ±10%).
    pub fn unattributed_share(&self) -> f64 {
        if self.end_to_end_s == 0.0 {
            0.0
        } else {
            self.unattributed_s / self.end_to_end_s
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&xs), Some(3.0));
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(5.0));
        assert_eq!(quantile(&xs, 0.25), Some(2.0));
        // Even count: the median is the mean of the middle pair.
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), Some(2.5));
        // 0.99 of 1..=101 sits at rank 99 → value 100.
        let hundred: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(quantile(&hundred, 0.99), Some(100.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[7.0], 0.99), Some(7.0));
    }

    #[test]
    fn closure_remainder_makes_the_sum_exact() {
        let c = Closure::new(
            2.0,
            vec![
                LayerTime {
                    name: "a".into(),
                    self_s: 1.25,
                },
                LayerTime {
                    name: "b".into(),
                    self_s: 0.5,
                },
            ],
        );
        assert_eq!(c.layer_sum_s(), 1.75);
        assert_eq!(c.unattributed_s, 0.25);
        assert_eq!(c.layer_sum_s() + c.unattributed_s, c.end_to_end_s);
        assert_eq!(c.unattributed_share(), 0.125);
        // Layers that overrun the end-to-end time leave a negative
        // remainder rather than being clipped.
        let over = Closure::new(
            1.0,
            vec![LayerTime {
                name: "a".into(),
                self_s: 1.5,
            }],
        );
        assert_eq!(over.unattributed_s, -0.5);
    }
}
