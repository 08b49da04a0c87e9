//! Pins the identity of the paper's DSPN state spaces and solutions.
//!
//! For the Fig. 2 (reactive) and Fig. 3 (proactive) nets at n = 1..=6 and
//! Erlang k ∈ {1, 8, 16, 32}, a digest covers the tangible reachability
//! graph exactly as `petri::reach::explore` numbers it: every marking in
//! state-id order, every edge's target and `f64::to_bits` rate in edge
//! order, and the initial distribution. Two more digests cover the `to_bits`
//! of the Dense and Gauss–Seidel stationary vectors and their residuals. Any change to state
//! numbering, edge order or floating-point summation order in reachability
//! or the solvers changes a digest, so performance work on those paths must
//! leave this table untouched.

use mvml_core::dspn::{reactive_only, with_proactive};
use mvml_core::SystemParams;
use mvml_petri::reach::{explore, ReachabilityGraph};
use mvml_petri::{erlang_expand, solve_graph, ReachOptions, SolutionMethod, SolverOptions};

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn graph_digest(g: &ReachabilityGraph) -> u64 {
    let mut d = Digest::new();
    d.word(g.markings.len() as u64);
    for m in &g.markings {
        d.word(m.len() as u64);
        for &t in m.as_slice() {
            d.word(u64::from(t));
        }
    }
    for out in &g.edges {
        d.word(out.len() as u64);
        for &(t, r) in out {
            d.word(t as u64);
            d.word(r.to_bits());
        }
    }
    d.word(g.initial.len() as u64);
    for &(s, p) in &g.initial {
        d.word(s as u64);
        d.word(p.to_bits());
    }
    d.0
}

#[allow(clippy::expect_used)] // test harness; every pinned net solves
fn vector_digest(g: &ReachabilityGraph, method: &SolutionMethod) -> u64 {
    let sol = solve_graph(g, method, &SolverOptions::default()).expect("solves");
    let ss = sol.steady_state().expect("analytic backend");
    let mut d = Digest::new();
    for (_, p) in ss.iter() {
        d.word(p.to_bits());
    }
    d.word(sol.info().residual.to_bits());
    d.0
}

/// `(label, states, graph digest, Dense digest, Gauss–Seidel digest)`.
type Row = (String, usize, u64, u64, u64);

#[allow(clippy::expect_used)] // test harness; every pinned net builds and explores
fn measure() -> Vec<Row> {
    let params = SystemParams::paper_table_iv();
    let mut rows = Vec::new();
    for proactive in [false, true] {
        for n in 1..=6u32 {
            for k in [1u32, 8, 16, 32] {
                let mv = if proactive {
                    with_proactive(n, &params)
                } else {
                    reactive_only(n, &params)
                }
                .expect("net builds");
                let net = erlang_expand(&mv.net, k).expect("expands");
                let g = explore(&net, &ReachOptions::default()).expect("explores");
                let dense = vector_digest(&g, &SolutionMethod::Dense);
                let gs = vector_digest(&g, &SolutionMethod::GaussSeidel);
                let variant = if proactive { "fig3" } else { "fig2" };
                rows.push((
                    format!("{variant} n={n} k={k}"),
                    g.state_count(),
                    graph_digest(&g),
                    dense,
                    gs,
                ));
            }
        }
    }
    rows
}

#[rustfmt::skip]
const PINNED: &[(&str, usize, u64, u64, u64)] = &[
    ("fig2 n=1 k=1", 3, 0xfc049690386020ce, 0x15c7809b360a168f, 0x19faaa4b7a24d9fa),
    ("fig2 n=1 k=8", 3, 0xfc049690386020ce, 0x15c7809b360a168f, 0x19faaa4b7a24d9fa),
    ("fig2 n=1 k=16", 3, 0xfc049690386020ce, 0x15c7809b360a168f, 0x19faaa4b7a24d9fa),
    ("fig2 n=1 k=32", 3, 0xfc049690386020ce, 0x15c7809b360a168f, 0x19faaa4b7a24d9fa),
    ("fig2 n=2 k=1", 6, 0x143567a855fc2b01, 0xb5302bf247394c45, 0xa3e1f9b98921c708),
    ("fig2 n=2 k=8", 6, 0x143567a855fc2b01, 0xb5302bf247394c45, 0xa3e1f9b98921c708),
    ("fig2 n=2 k=16", 6, 0x143567a855fc2b01, 0xb5302bf247394c45, 0xa3e1f9b98921c708),
    ("fig2 n=2 k=32", 6, 0x143567a855fc2b01, 0xb5302bf247394c45, 0xa3e1f9b98921c708),
    ("fig2 n=3 k=1", 10, 0x690bc3125be051df, 0x664315292dd63d39, 0x2f5af1e7e7ad6037),
    ("fig2 n=3 k=8", 10, 0x690bc3125be051df, 0x664315292dd63d39, 0x2f5af1e7e7ad6037),
    ("fig2 n=3 k=16", 10, 0x690bc3125be051df, 0x664315292dd63d39, 0x2f5af1e7e7ad6037),
    ("fig2 n=3 k=32", 10, 0x690bc3125be051df, 0x664315292dd63d39, 0x2f5af1e7e7ad6037),
    ("fig2 n=4 k=1", 15, 0x1e26a6febb34ac97, 0x94b80bde1704988b, 0x0b5d6f6f48c70d0a),
    ("fig2 n=4 k=8", 15, 0x1e26a6febb34ac97, 0x94b80bde1704988b, 0x0b5d6f6f48c70d0a),
    ("fig2 n=4 k=16", 15, 0x1e26a6febb34ac97, 0x94b80bde1704988b, 0x0b5d6f6f48c70d0a),
    ("fig2 n=4 k=32", 15, 0x1e26a6febb34ac97, 0x94b80bde1704988b, 0x0b5d6f6f48c70d0a),
    ("fig2 n=5 k=1", 21, 0x178120aa8c40eebe, 0x6081e4a5e49ab714, 0x80c625091189a38b),
    ("fig2 n=5 k=8", 21, 0x178120aa8c40eebe, 0x6081e4a5e49ab714, 0x80c625091189a38b),
    ("fig2 n=5 k=16", 21, 0x178120aa8c40eebe, 0x6081e4a5e49ab714, 0x80c625091189a38b),
    ("fig2 n=5 k=32", 21, 0x178120aa8c40eebe, 0x6081e4a5e49ab714, 0x80c625091189a38b),
    ("fig2 n=6 k=1", 28, 0xe9444daec11a91f9, 0x412638121249545f, 0x4cacf4ebc592c6f9),
    ("fig2 n=6 k=8", 28, 0xe9444daec11a91f9, 0x412638121249545f, 0x4cacf4ebc592c6f9),
    ("fig2 n=6 k=16", 28, 0xe9444daec11a91f9, 0x412638121249545f, 0x4cacf4ebc592c6f9),
    ("fig2 n=6 k=32", 28, 0xe9444daec11a91f9, 0x412638121249545f, 0x4cacf4ebc592c6f9),
    ("fig3 n=1 k=1", 5, 0x9cb4ec6bb1287119, 0xfe606d0ebab0baa8, 0xb56c9292c8e6478c),
    ("fig3 n=1 k=8", 40, 0x7c4d003b56ebf13d, 0xfb611fd18bea26df, 0x0a6587949a4f91ba),
    ("fig3 n=1 k=16", 80, 0x0eb5746dbc2bd62d, 0x1c01a77ebb0d1a13, 0xc1a487f6d12e1af2),
    ("fig3 n=1 k=32", 160, 0xe2961d08b1eafead, 0x090b641206344063, 0x364b39b43e516966),
    ("fig3 n=2 k=1", 12, 0x2cc1616bd78a7acb, 0x46393b8610b0da30, 0x0be4421309c4fcd9),
    ("fig3 n=2 k=8", 96, 0xa1ede216a8fb45f2, 0x863e439910cd45e2, 0x428168f2e102106c),
    ("fig3 n=2 k=16", 192, 0xb1da936b936a7ad2, 0xf99bfa10bbd0f48b, 0xaa89a27c64ab1d73),
    ("fig3 n=2 k=32", 384, 0x927c1d2ee5896016, 0xa71c17170fe1959c, 0xbdc4664c365c1f48),
    ("fig3 n=3 k=1", 22, 0xfbaf9955c1d7adf6, 0xee1c271f1d186092, 0xdc438354e5896842),
    ("fig3 n=3 k=8", 176, 0x429b5c848e35bc3c, 0xd29758852c10cba7, 0x3e59f8cfbb6af766),
    ("fig3 n=3 k=16", 352, 0xfa1454f7be2b6470, 0x50e2317e7d9cc114, 0x3f503f1a9c97303b),
    ("fig3 n=3 k=32", 704, 0x278e9f3cbe440cc0, 0x988e14daa343fc1f, 0xe0d23d3f1da54cde),
    ("fig3 n=4 k=1", 35, 0x2052f0be458cd199, 0x683c3252dc01191d, 0xeeaaddd72ec000d1),
    ("fig3 n=4 k=8", 280, 0xcca0aeac18ae469a, 0x15433799eff73694, 0x2cfb96691babc109),
    ("fig3 n=4 k=16", 560, 0x47b4bbb09771b482, 0xc5b2f145aa0f8b11, 0x77ae9c6d8bc44abb),
    ("fig3 n=4 k=32", 1120, 0x0bfd181790182ac1, 0x382700ff8004e713, 0x2a9cbc80d037ce7b),
    ("fig3 n=5 k=1", 51, 0x9ec8069f873770f4, 0x324e76e30e144f43, 0x54e6be714013863c),
    ("fig3 n=5 k=8", 408, 0x67acd91a9eac2d5d, 0xac4af898ef8917da, 0x14928cc8e07d6bd9),
    ("fig3 n=5 k=16", 816, 0x37060d6d5f43ceb5, 0x099adadeaf329a15, 0xc1cce13ab10f9466),
    ("fig3 n=5 k=32", 1632, 0xbb4ade4af837aad4, 0x1dc1de536b4f6b36, 0x526c44871c8cc736),
    ("fig3 n=6 k=1", 70, 0x411d44d5dcccafaf, 0xc65380852d1802ca, 0x046cc3ce3713cde6),
    ("fig3 n=6 k=8", 560, 0x85df4547059247ba, 0xf93d66993684aeaf, 0x2be12bf2ff26ed22),
    ("fig3 n=6 k=16", 1120, 0x79f43bac7979ebcf, 0x90f09d4df113a2d3, 0x7fedc4d0c3a370ab),
    ("fig3 n=6 k=32", 2240, 0x23196d3e13cd3fa5, 0x1ea7578298070c77, 0x297b0588f3e524c4),
];

#[test]
fn reachability_graphs_and_stationary_vectors_are_pinned() {
    let rows = measure();
    let table: String = rows
        .iter()
        .map(|(l, s, g, d, gs)| format!("    (\"{l}\", {s}, {g:#018x}, {d:#018x}, {gs:#018x}),\n"))
        .collect();
    assert_eq!(rows.len(), PINNED.len(), "measured table:\n{table}");
    for (row, pinned) in rows.iter().zip(PINNED) {
        assert_eq!(
            (row.0.as_str(), row.1, row.2, row.3, row.4),
            *pinned,
            "measured table:\n{table}"
        );
    }
}
