//! Property-based tests for the linear-algebra kernels.

use proptest::prelude::*;
use rlpta_linalg::{norms, CsrMatrix, DenseMatrix, SparseLu, Triplet};

/// Strategy: a random diagonally-dominant sparse square system of size 2..=20
/// together with a right-hand side.
fn dd_system() -> impl Strategy<Value = (CsrMatrix, Vec<f64>)> {
    (2usize..=20).prop_flat_map(|n| {
        let entries = proptest::collection::vec((0..n, 0..n, -1.0f64..1.0), 0..(3 * n));
        let rhs = proptest::collection::vec(-10.0f64..10.0, n);
        (entries, rhs).prop_map(move |(es, b)| {
            let mut t = Triplet::new(n, n);
            let mut row_sum = vec![0.0; n];
            for (r, c, v) in &es {
                if r != c {
                    t.push(*r, *c, *v);
                    row_sum[*r] += v.abs();
                }
            }
            for (i, s) in row_sum.iter().enumerate() {
                // Strict diagonal dominance guarantees nonsingularity.
                t.push(i, i, s + 1.0);
            }
            (t.to_csr(), b)
        })
    })
}

/// The comparison-sort COO→CSR conversion `Triplet::to_csr` used before
/// the counting sort: stable sort by `(row, col)`, then a left-to-right
/// sum of each run of duplicates. Returns `(row_ptr, col_indices, values)`.
fn comparison_sort_csr(
    rows: usize,
    entries: &[(usize, usize, f64)],
) -> (Vec<usize>, Vec<usize>, Vec<f64>) {
    let mut sorted = entries.to_vec();
    sorted.sort_by_key(|e| (e.0, e.1));
    let mut row_ptr = vec![0usize; rows + 1];
    let mut cols = Vec::new();
    let mut values: Vec<f64> = Vec::new();
    let mut last = None;
    for (r, c, v) in sorted {
        if last == Some((r, c)) {
            *values.last_mut().unwrap() += v;
        } else {
            row_ptr[r + 1] += 1;
            cols.push(c);
            values.push(v);
            last = Some((r, c));
        }
    }
    for i in 0..rows {
        row_ptr[i + 1] += row_ptr[i];
    }
    (row_ptr, cols, values)
}

/// Strategy: COO entries over a small (often non-square) shape, so
/// positions repeat and rows stay empty; values are drawn from signed
/// zeros, cancelling `±1e16` pairs, `1.0` and random values.
fn coo_entries() -> impl Strategy<Value = (usize, usize, Vec<(usize, usize, f64)>)> {
    (1usize..=6, 1usize..=6).prop_flat_map(|(rows, cols)| {
        let entry = (0..rows, 0..cols, 0usize..6, -1.0f64..1.0).prop_map(|(r, c, pick, v)| {
            let v = match pick {
                0 => -0.0,
                1 => 0.0,
                2 => 1e16,
                3 => -1e16,
                4 => 1.0,
                _ => v,
            };
            (r, c, v)
        });
        (
            Just(rows),
            Just(cols),
            proptest::collection::vec(entry, 0..40),
        )
    })
}

proptest! {
    #[test]
    fn to_csr_matches_comparison_sort((rows, cols, entries) in coo_entries()) {
        let mut t = Triplet::new(rows, cols);
        for &(r, c, v) in &entries {
            t.push(r, c, v);
        }
        let a = t.to_csr();
        let (row_ptr, col_indices, values) = comparison_sort_csr(rows, &entries);
        prop_assert_eq!(a.row_ptr(), &row_ptr[..]);
        prop_assert_eq!(a.col_indices(), &col_indices[..]);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(a.values()), bits(&values));
    }

    #[test]
    fn sparse_lu_solves_dd_systems((a, b) in dd_system()) {
        let lu = SparseLu::factorize(&a).expect("dd matrix is nonsingular");
        let x = lu.solve(&b).expect("dims match");
        let ax = a.matvec(&x);
        let resid = norms::diff_inf_norm(&ax, &b);
        let scale = norms::inf_norm(&b).max(1.0);
        prop_assert!(resid <= 1e-8 * scale, "residual {resid}");
    }

    #[test]
    fn sparse_matches_dense_reference((a, b) in dd_system()) {
        let xs = SparseLu::factorize(&a).unwrap().solve(&b).unwrap();
        let xd = a.to_dense().lu().unwrap().solve(&b).unwrap();
        for (s, d) in xs.iter().zip(&xd) {
            prop_assert!((s - d).abs() < 1e-8, "{s} vs {d}");
        }
    }

    #[test]
    fn csr_roundtrips_through_dense((a, _b) in dd_system()) {
        let d = a.to_dense();
        let mut t = Triplet::new(d.rows(), d.cols());
        for i in 0..d.rows() {
            for j in 0..d.cols() {
                if d[(i, j)] != 0.0 {
                    t.push(i, j, d[(i, j)]);
                }
            }
        }
        let a2 = t.to_csr();
        // Same dense content even if patterns differ on summed-to-zero slots.
        let x: Vec<f64> = (0..d.cols()).map(|k| k as f64 + 0.5).collect();
        let y1 = a.matvec(&x);
        let y2 = a2.matvec(&x);
        for (u, v) in y1.iter().zip(&y2) {
            prop_assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn transpose_is_involution((a, _b) in dd_system()) {
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn matvec_linearity((a, b) in dd_system(), alpha in -3.0f64..3.0) {
        let scaled: Vec<f64> = b.iter().map(|v| alpha * v).collect();
        let y1 = a.matvec(&scaled);
        let y2: Vec<f64> = a.matvec(&b).iter().map(|v| alpha * v).collect();
        for (u, v) in y1.iter().zip(&y2) {
            prop_assert!((u - v).abs() < 1e-9 * (1.0 + v.abs()));
        }
    }

    #[test]
    fn dense_lu_det_of_triangular(v in proptest::collection::vec(0.5f64..4.0, 1..8)) {
        let n = v.len();
        let mut m = DenseMatrix::identity(n);
        for (i, d) in v.iter().enumerate() {
            m[(i, i)] = *d;
        }
        let det = m.lu().unwrap().det();
        let expect: f64 = v.iter().product();
        prop_assert!((det - expect).abs() < 1e-9 * expect.abs());
    }

    #[test]
    fn weighted_tolerance_is_reflexive(x in proptest::collection::vec(-1e6f64..1e6, 1..32)) {
        prop_assert!(norms::within_weighted_tolerance(&x, &x, 1e-3, 1e-6));
    }

    #[test]
    fn inf_norm_triangle_inequality(
        a in proptest::collection::vec(-1e3f64..1e3, 1..16),
    ) {
        let b: Vec<f64> = a.iter().map(|v| v * 0.5 - 1.0).collect();
        let sum: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        prop_assert!(norms::inf_norm(&sum) <= norms::inf_norm(&a) + norms::inf_norm(&b) + 1e-9);
    }
}
