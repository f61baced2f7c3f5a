//! Exact water-filling: the budget-division primitive at every interior
//! node of the fleet tree.
//!
//! [`fill`] solves the classic bounded water-filling problem — find a
//! water level `λ` such that `Σᵢ clamp(λ, loᵢ, hiᵢ)` equals the budget
//! (clamped to the feasible range `[Σ lo, Σ hi]`) — with the **breakpoint
//! method**, not bisection: sort the `2n` clamp boundaries, locate the
//! linear segment containing the target, and solve `λ` on it in closed
//! form. Two properties bisection cannot give, both load-bearing here:
//!
//! * **Exact pass-through** — with a single child and a feasible budget,
//!   the allocation is the budget *bitwise* (`λ = budget` on the interior
//!   segment). Chains of single-child nodes therefore forward a budget
//!   unchanged, which is what makes a one-server fleet reproduce the
//!   single-server artifacts exactly (the `fig5` pin test).
//! * **Conservation to float precision** — the segment solve makes
//!   `Σ shares` equal the clamped budget up to a handful of ulps, far
//!   inside the oracle's 1 µW tree-conservation tolerance, with no
//!   iteration-count/accuracy trade-off.
//!
//! [`divide`] layers FastCap-style demand awareness on top: below
//! aggregate demand the level rises toward each child's demand (scarcity);
//! above it, every child gets at least its demand and the surplus fills
//! toward the caps. Both phases reduce to one [`fill`] call each, so the
//! exactness properties carry over.

/// Solves `Σᵢ clamp(λ, loᵢ, hiᵢ) = clamp(budget, Σ lo, Σ hi)` and returns
/// the per-item shares `clamp(λ, loᵢ, hiᵢ)`.
///
/// One pass costs O(n log n): the sort of the `2n` breakpoints, then a
/// binary search that evaluates `S(λ)` (O(n) each) at about `log₂(2n)`
/// of them. The binary search finds the same breakpoint a linear scan
/// would, bit for bit, because the float predicate `S(b) >= total` is
/// monotone over the sorted breakpoints: each `clamp(b, loᵢ, hiᵢ)` is
/// nondecreasing in `b`, `S` adds them in one fixed order, and IEEE
/// round-to-nearest addition is monotone (`a ≤ a'` and `c ≤ c'` imply
/// `fl(a + c) ≤ fl(a' + c')`), so `b ≤ b'` gives `S(b) ≤ S(b')` in
/// floats too. λ and every share are therefore those of the scan.
///
/// # Panics
///
/// Panics when shapes mismatch, a bound is non-finite or negative, or
/// `loᵢ > hiᵢ` — interior-node aggregation keeps these invariants, so a
/// trip here is a caller bug, not data.
#[must_use]
pub fn fill(budget: f64, lo: &[f64], hi: &[f64]) -> Vec<f64> {
    assert_eq!(lo.len(), hi.len(), "water-fill: shape mismatch");
    for (i, (&l, &h)) in lo.iter().zip(hi).enumerate() {
        assert!(
            l.is_finite() && h.is_finite() && l >= 0.0 && l <= h,
            "water-fill: bad bounds at {i}: [{l}, {h}]"
        );
    }
    let n = lo.len();
    if n == 0 {
        return Vec::new();
    }
    let sum_lo: f64 = lo.iter().sum();
    let sum_hi: f64 = hi.iter().sum();
    let total = budget.clamp(sum_lo, sum_hi);

    // S(λ) = Σ clamp(λ, lo, hi) is nondecreasing piecewise linear with
    // breakpoints exactly at the bounds. Find the first breakpoint at or
    // above the target (the predicate is the negation of `>=` so that a
    // NaN budget, which compares false everywhere, runs off the end)…
    let mut bps: Vec<f64> = lo.iter().chain(hi.iter()).copied().collect();
    bps.sort_by(f64::total_cmp);
    let s_at = |level: f64| -> f64 { lo.iter().zip(hi).map(|(&l, &h)| level.clamp(l, h)).sum() };
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    let k = bps.partition_point(|&b| !(s_at(b) >= total));
    let lambda = match bps.get(k) {
        // …an exact hit on a breakpoint is that breakpoint;
        Some(&next) if s_at(next) == total => next,
        // …otherwise λ lies strictly inside the segment below breakpoint
        // `k`: the unclamped items contribute slope |U|, everything else
        // is a constant, and the segment solve is exact.
        Some(&next) => {
            debug_assert!(k > 0, "S(min bound) = Σ lo <= total");
            let prev = bps[k - 1];
            let mut fixed = 0.0;
            let mut unclamped = 0usize;
            for (&l, &h) in lo.iter().zip(hi) {
                if h <= prev {
                    fixed += h;
                } else if l >= next {
                    fixed += l;
                } else {
                    unclamped += 1;
                }
            }
            debug_assert!(unclamped > 0, "segment with S(next) > S(prev) has slope");
            (total - fixed) / unclamped as f64
        }
        // S(max bound) = Σ hi >= total by the clamp above, so only a
        // NaN budget gets here.
        None => bps[n * 2 - 1],
    };
    lo.iter()
        .zip(hi)
        .map(|(&l, &h)| lambda.clamp(l, h))
        .collect()
}

/// FastCap-style demand-aware division of `budget` across children with
/// floors `lo`, caps `hi` and current `demand` estimates: under scarcity
/// (`budget ≤ Σ clamp(demand)`) the water level rises toward each child's
/// demand; under surplus every child receives at least its demand and the
/// remainder fills toward the caps. Single-child feasible budgets pass
/// through bitwise (see the module docs).
///
/// # Panics
///
/// As [`fill`]; additionally when `demand` has a different length.
#[must_use]
pub fn divide(budget: f64, demand: &[f64], lo: &[f64], hi: &[f64]) -> Vec<f64> {
    assert_eq!(demand.len(), lo.len(), "water-fill: shape mismatch");
    let d: Vec<f64> = demand
        .iter()
        .zip(lo.iter().zip(hi))
        .map(|(&d, (&l, &h))| d.clamp(l, h))
        .collect();
    let want: f64 = d.iter().sum();
    if budget <= want {
        fill(budget, lo, &d)
    } else {
        fill(budget, &d, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn total_of(shares: &[f64]) -> f64 {
        shares.iter().sum()
    }

    /// [`fill`] with the breakpoint found by a linear scan instead of a
    /// binary search: the reference its search must match bit for bit.
    fn fill_linear_scan(budget: f64, lo: &[f64], hi: &[f64]) -> Vec<f64> {
        let n = lo.len();
        if n == 0 {
            return Vec::new();
        }
        let sum_lo: f64 = lo.iter().sum();
        let sum_hi: f64 = hi.iter().sum();
        let total = budget.clamp(sum_lo, sum_hi);
        let mut bps: Vec<f64> = lo.iter().chain(hi.iter()).copied().collect();
        bps.sort_by(f64::total_cmp);
        let s_at =
            |level: f64| -> f64 { lo.iter().zip(hi).map(|(&l, &h)| level.clamp(l, h)).sum() };
        let lambda = match bps.iter().position(|&b| s_at(b) >= total) {
            Some(k) if s_at(bps[k]) == total => bps[k],
            Some(k) => {
                let prev = bps[k - 1];
                let next = bps[k];
                let mut fixed = 0.0;
                let mut unclamped = 0usize;
                for (&l, &h) in lo.iter().zip(hi) {
                    if h <= prev {
                        fixed += h;
                    } else if l >= next {
                        fixed += l;
                    } else {
                        unclamped += 1;
                    }
                }
                (total - fixed) / unclamped as f64
            }
            None => bps[n * 2 - 1],
        };
        lo.iter()
            .zip(hi)
            .map(|(&l, &h)| lambda.clamp(l, h))
            .collect()
    }

    /// [`divide`] over [`fill_linear_scan`].
    fn divide_linear_scan(budget: f64, demand: &[f64], lo: &[f64], hi: &[f64]) -> Vec<f64> {
        let d: Vec<f64> = demand
            .iter()
            .zip(lo.iter().zip(hi))
            .map(|(&d, (&l, &h))| d.clamp(l, h))
            .collect();
        let want: f64 = d.iter().sum();
        if budget <= want {
            fill_linear_scan(budget, lo, &d)
        } else {
            fill_linear_scan(budget, &d, hi)
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// One child's `(lo, hi, demand)` from a shape selector and three
    /// draws. Half the shapes sit on a coarse grid so bounds and demands
    /// collide across children (duplicate breakpoints, ties); the rest
    /// are offline `[0, 0]`, zero-width at a grid point, or continuous.
    fn child(shape: u8, g: (u32, u32, u32), x: (f64, f64, f64)) -> (f64, f64, f64) {
        let grid = |k: u32| f64::from(k) * 2.5;
        match shape {
            0 => (0.0, 0.0, grid(g.2)),
            1 => (grid(g.0), grid(g.0), x.2),
            2 | 3 => (grid(g.0), grid(g.0) + grid(g.1), grid(g.2)),
            _ => (x.0, x.0 + x.1, x.2),
        }
    }

    /// A budget from a selector: outside `[Σlo, Σhi]` on either side,
    /// exactly `S(b)` at one of the breakpoints, infinite or NaN, or a
    /// point inside the range.
    fn budget_for(sel: u8, frac: f64, lo: &[f64], hi: &[f64]) -> f64 {
        let sum_lo: f64 = lo.iter().sum();
        let sum_hi: f64 = hi.iter().sum();
        let mut bps: Vec<f64> = lo.iter().chain(hi).copied().collect();
        bps.sort_by(f64::total_cmp);
        let at = bps[((frac * bps.len() as f64) as usize).min(bps.len() - 1)];
        match sel {
            0 => sum_lo * frac - 1.0,
            1 => sum_hi * (1.0 + frac) + 1.0,
            2 | 3 => lo.iter().zip(hi).map(|(&l, &h)| at.clamp(l, h)).sum(),
            4 => f64::INFINITY,
            5 => f64::NAN,
            _ => sum_lo + (sum_hi - sum_lo) * frac,
        }
    }

    #[test]
    fn single_child_passes_feasible_budgets_through_bitwise() {
        // The fig5 pin path: every representable budget inside the bounds
        // must come back unchanged, not within-epsilon.
        for b in [
            48.0,
            72.0,
            96.0,
            0.4 * 120.0,
            0.6 * 120.0,
            0.123_456_789 * 97.3,
        ] {
            let got = fill(b, &[12.0], &[120.0]);
            assert_eq!(got, vec![b]);
            let via_divide = divide(b, &[120.0], &[12.0], &[120.0]);
            assert_eq!(via_divide, vec![b]);
            // Surplus phase too (demand below the budget).
            let surplus = divide(b, &[10.0], &[1.0], &[120.0]);
            assert_eq!(surplus, vec![b]);
        }
        // Out-of-range budgets clamp to the bound.
        assert_eq!(fill(500.0, &[12.0], &[120.0]), vec![120.0]);
        assert_eq!(fill(1.0, &[12.0], &[120.0]), vec![12.0]);
    }

    #[test]
    fn equal_children_split_equally() {
        let shares = fill(300.0, &[0.0; 3], &[200.0; 3]);
        assert_eq!(shares, vec![100.0; 3]);
    }

    #[test]
    fn caps_and_floors_bind_and_the_rest_levels() {
        // Child 0 capped at 20, child 2 floored at 50; the level settles
        // between their bounds.
        let shares = fill(120.0, &[0.0, 0.0, 50.0], &[20.0, 200.0, 200.0]);
        assert_eq!(shares[0], 20.0);
        assert_eq!(shares[2], 50.0);
        assert!((total_of(&shares) - 120.0).abs() < 1e-9);
        assert!((shares[1] - 50.0).abs() < 1e-9);
    }

    #[test]
    fn scarcity_levels_toward_demand() {
        // Budget below aggregate demand: the hungry child cannot pull the
        // level above a modest child's demand.
        let shares = divide(90.0, &[30.0, 100.0], &[0.0, 0.0], &[200.0, 200.0]);
        assert!((total_of(&shares) - 90.0).abs() < 1e-9);
        assert_eq!(shares[0], 30.0, "modest child capped at its demand");
        assert!(
            (shares[1] - 60.0).abs() < 1e-9,
            "hungry child gets the rest"
        );
    }

    #[test]
    fn surplus_tops_everyone_up_past_demand() {
        let shares = divide(180.0, &[30.0, 100.0], &[0.0, 0.0], &[200.0, 200.0]);
        assert!((total_of(&shares) - 180.0).abs() < 1e-9);
        assert!(shares[0] >= 30.0 && shares[1] >= 100.0);
        // Surplus splits by the same level: both children sit at λ or at
        // their demand floor.
        assert!((shares[0] - 80.0).abs() < 1e-9 || shares[0] == 30.0);
    }

    #[test]
    fn zero_width_children_are_fine() {
        // Offline children contribute [0, 0] bounds.
        let shares = fill(50.0, &[0.0, 0.0, 0.0], &[0.0, 100.0, 0.0]);
        assert_eq!(shares, vec![0.0, 50.0, 0.0]);
        assert!(fill(10.0, &[], &[]).is_empty());
    }

    proptest! {
        /// Conservation, bounds, and level structure over random inputs.
        #[test]
        fn fill_conserves_and_respects_bounds(
            budget in 0.0f64..2000.0,
            pairs in proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0), 1..12),
        ) {
            let lo: Vec<f64> = pairs.iter().map(|&(a, b)| a.min(a + b * 0.3)).collect();
            let hi: Vec<f64> = pairs.iter().map(|&(a, b)| a.max(a) + b).collect();
            let shares = fill(budget, &lo, &hi);
            let sum_lo: f64 = lo.iter().sum();
            let sum_hi: f64 = hi.iter().sum();
            let total = budget.clamp(sum_lo, sum_hi);
            // 1 µW is the oracle tolerance; stay orders of magnitude under.
            prop_assert!((total_of(&shares) - total).abs() < 1e-9,
                "Σ {} vs {}", total_of(&shares), total);
            for ((&s, &l), &h) in shares.iter().zip(&lo).zip(&hi) {
                prop_assert!(s >= l && s <= h, "share {s} outside [{l}, {h}]");
            }
        }

        /// Shares are monotone in the budget (more watts never hurt any child).
        #[test]
        fn fill_is_monotone_in_budget(
            b1 in 0.0f64..1000.0,
            extra in 0.0f64..500.0,
            his in proptest::collection::vec(1.0f64..100.0, 1..10),
        ) {
            let lo = vec![0.0; his.len()];
            let a = fill(b1, &lo, &his);
            let b = fill(b1 + extra, &lo, &his);
            for (x, y) in a.iter().zip(&b) {
                prop_assert!(y >= x);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The binary breakpoint search returns exactly the linear
        /// scan's shares, bit for bit, for `fill` and `divide` alike.
        #[test]
        fn binary_search_matches_the_linear_scan_bitwise(
            n in 1usize..=256,
            draws in proptest::collection::vec(
                (0u8..8, (0u32..12, 0u32..12, 0u32..16), (0.0f64..60.0, 0.0f64..60.0, 0.0f64..90.0)),
                256,
            ),
            sel in 0u8..10,
            frac in 0.0f64..1.0,
        ) {
            let kids: Vec<(f64, f64, f64)> =
                draws[..n].iter().map(|&(shape, g, x)| child(shape, g, x)).collect();
            let lo: Vec<f64> = kids.iter().map(|k| k.0).collect();
            let hi: Vec<f64> = kids.iter().map(|k| k.1).collect();
            let demand: Vec<f64> = kids.iter().map(|k| k.2).collect();
            let budget = budget_for(sel, frac, &lo, &hi);
            prop_assert_eq!(
                bits(&fill(budget, &lo, &hi)),
                bits(&fill_linear_scan(budget, &lo, &hi)),
                "fill, budget {budget}, n {n}"
            );
            prop_assert_eq!(
                bits(&divide(budget, &demand, &lo, &hi)),
                bits(&divide_linear_scan(budget, &demand, &lo, &hi)),
                "divide, budget {budget}, n {n}"
            );
        }
    }
}
