//! The pack's order contract, against a walk of the dense weight.
//!
//! A dense `(O, I, k, k)` weight is already in canonical `(oc, ic, ky,
//! kx)` order, and `from_dense` builds the pack in one walk of it. The
//! tiled driver's bit-identity to the scalar oracle rests on the order
//! that walk produces, so this pins it over random kEP / 1×1 /
//! unpruned / 6×6 layers:
//!
//! 1. per `oc`, the pack's kernels are exactly the weight's non-empty
//!    kernels in strictly ascending `ic`, each with its non-zero cells
//!    as taps in ascending `(ky, kx)` and their values bit for bit —
//!    in both views;
//! 2. the pattern view stores one offset slice per distinct mask and
//!    every kernel with that mask points at it; the COO view gives
//!    every kernel its own;
//! 3. the untrusted lowering behind `from_parts` reaches the same pack
//!    whatever the kernel order inside a group, keeps group order, then
//!    kernel order, for kernels that share an `(oc, ic)` (corrupt
//!    input; RV011), runs an out-of-range `ic` after the valid ones
//!    and never runs an out-of-range `oc`.

use proptest::prelude::*;
use rtoss_core::pattern::canonical_set;
use rtoss_core::prune1x1::prune_1x1_weights;
use rtoss_core::prune3x3::prune_3x3_weights;
use rtoss_sparse::{Pack, PatternCompressedConv, PatternGroup, UnstructuredSparseConv};
use rtoss_tensor::{init, Tensor};
use std::collections::BTreeMap;

/// One random layer per `kind`: kEP-pruned 3×3 (`kind` = 2..=5), 1×1
/// pruned by Algorithm 3 (0), 1×1 with scattered zeros (1), unpruned
/// 3×3 (6), unpruned 6×6 stem (7).
fn layer(kind: usize, o: usize, i: usize, seed: u64) -> Tensor {
    let mut rng = init::rng(seed);
    match kind {
        0 => {
            let mut w = init::uniform(&mut rng, &[o, i, 1, 1], -1.0, 1.0);
            prune_1x1_weights(&mut w, &canonical_set(3).unwrap()).unwrap();
            w
        }
        1 => {
            let mut w = init::uniform(&mut rng, &[o, i, 1, 1], -1.0, 1.0);
            for v in w.as_mut_slice().iter_mut().step_by(3) {
                *v = 0.0;
            }
            w
        }
        2..=5 => {
            let mut w = init::uniform(&mut rng, &[o, i, 3, 3], -1.0, 1.0);
            prune_3x3_weights(&mut w, &canonical_set(kind).unwrap()).unwrap();
            w
        }
        6 => init::uniform(&mut rng, &[o, i, 3, 3], 0.1, 1.0),
        _ => init::uniform(&mut rng, &[o, i, 6, 6], 0.1, 1.0),
    }
}

/// Asserts `pack` is the walk of `w` described in the module docs;
/// `shared` says whether kernels of one mask must share their offset
/// slice (pattern view) or each own one (COO view).
fn assert_is_the_dense_walk(pack: &Pack, w: &Tensor, shared: bool) {
    let (o, i, k) = (w.shape()[0], w.shape()[1], w.shape()[2]);
    // Where each distinct mask's offsets live in the pack.
    type Taps = Vec<(u8, u8)>;
    let mut slice_of: BTreeMap<Taps, Vec<*const (u8, u8)>> = BTreeMap::new();
    let mut kernels = 0;
    for oc in 0..o {
        let mut packed = pack.oc_kernels(oc);
        for ic in 0..i {
            let cells: Vec<((u8, u8), f32)> = (0..k * k)
                .map(|ci| {
                    (
                        ((ci / k) as u8, (ci % k) as u8),
                        w.at(&[oc, ic, ci / k, ci % k]),
                    )
                })
                .filter(|&(_, v)| v != 0.0)
                .collect();
            if cells.is_empty() {
                continue; // fully pruned kernels are not stored
            }
            let (got_ic, taps, vals) = packed.next().expect("a stored kernel");
            assert_eq!(got_ic, ic, "oc {oc}");
            let want_taps: Taps = cells.iter().map(|&(at, _)| at).collect();
            assert_eq!(taps, want_taps, "kernel ({oc},{ic})");
            let bits = |vs: &mut dyn Iterator<Item = f32>| vs.map(f32::to_bits).collect::<Vec<_>>();
            assert_eq!(
                bits(&mut vals.iter().copied()),
                bits(&mut cells.iter().map(|&(_, v)| v)),
                "kernel ({oc},{ic})"
            );
            slice_of.entry(want_taps).or_default().push(taps.as_ptr());
            kernels += 1;
        }
        assert!(
            packed.next().is_none(),
            "oc {oc} packs a kernel the weight lacks"
        );
    }
    assert_eq!(pack.kernel_count(), kernels);
    assert_eq!(pack.stored_weights(), w.numel() - w.count_zeros());
    let mut slices: Vec<*const (u8, u8)> = Vec::new();
    for (mask, users) in &slice_of {
        if shared {
            assert!(
                users.iter().all(|&p| p == users[0]),
                "mask {mask:?} stored twice"
            );
            slices.push(users[0]);
        } else {
            slices.extend(users);
        }
    }
    let distinct = slices.len();
    slices.sort_unstable();
    slices.dedup();
    assert_eq!(
        slices.len(),
        distinct,
        "two masks or two runs share an offset slice"
    );
    assert_eq!(pack.pattern_count(), distinct);
}

/// The same group with its kernels (coordinates and value chunks
/// together) in a random order: sorted by random keys.
fn shuffled(g: &PatternGroup, seed: u64) -> PatternGroup {
    let keys = init::uniform(&mut init::rng(seed), &[g.coords.len()], 0.0, 1.0);
    let mut order: Vec<usize> = (0..g.coords.len()).collect();
    order.sort_by(|&a, &b| keys.as_slice()[a].total_cmp(&keys.as_slice()[b]));
    let kernels: Vec<(usize, usize, &[f32])> = g.kernels().collect();
    let dealt: Vec<(usize, usize, &[f32])> = order.iter().map(|&at| kernels[at]).collect();
    PatternGroup::from_kernels(g.offsets.clone(), &dealt)
}

fn rebuilt(pc: &PatternCompressedConv, groups: Vec<PatternGroup>) -> PatternCompressedConv {
    PatternCompressedConv::from_parts(
        pc.out_channels(),
        pc.in_channels(),
        pc.kernel_size(),
        pc.stride(),
        pc.padding(),
        groups,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pack_is_the_dense_walk_whatever_the_kernel_order_in_a_group(
        kind in 0usize..8,
        o in 1usize..12,
        i in 1usize..10,
        stride in 1usize..3,
        seed in 0u64..1000,
    ) {
        let w = layer(kind, o, i, 0xC0DE ^ seed);
        let pad = w.shape()[2] / 2;
        let pc = PatternCompressedConv::from_dense(&w, stride, pad).unwrap();
        assert_is_the_dense_walk(pc.pack(), &w, true);
        let un = UnstructuredSparseConv::from_dense(&w, stride, pad).unwrap();
        assert_is_the_dense_walk(un.pack(), &w, false);
        prop_assert_eq!(pc.to_dense().as_slice(), w.as_slice());

        let groups: Vec<PatternGroup> = pc
            .groups()
            .iter()
            .enumerate()
            .map(|(gi, g)| shuffled(g, seed ^ 0x5AFE ^ (gi as u64) << 32))
            .collect();
        let again = rebuilt(&pc, groups);
        prop_assert!(again.validate().is_empty());
        prop_assert_eq!(again.pack(), pc.pack(), "kind {} {}x{} seed {}", kind, o, i, seed);
    }

    #[test]
    fn duplicate_kernels_keep_group_order(
        k_entries in 2usize..5,
        o in 2usize..8,
        i in 2usize..6,
        seed in 0u64..1000,
    ) {
        let w = layer(k_entries, o, i, 0xD0B1 ^ seed);
        let pc = PatternCompressedConv::from_dense(&w, 1, 1).unwrap();
        // Re-store kernel (oc, ic) of every group's first member: once
        // more at the end of its own group and once in every later
        // group, each copy tagged by its value.
        let mut groups = pc.groups();
        let (oc, ic) = groups[0].coords[0];
        let mut tag = 100.0f32;
        let mut want: Vec<Vec<f32>> = Vec::new();
        for g in &mut groups {
            let taps = g.offsets.len();
            if let Some(at) = g.coords.iter().position(|&c| c == (oc, ic)) {
                want.push(g.values[at * taps..(at + 1) * taps].to_vec());
            }
            g.coords.push((oc, ic));
            g.values.extend(std::iter::repeat_n(tag, taps));
            want.push(vec![tag; taps]);
            tag += 1.0;
        }
        let dup = rebuilt(&pc, groups);
        prop_assert!(dup.validate().iter().any(|v| v.code == "RV011"));
        let got: Vec<Vec<f32>> = dup
            .pack()
            .oc_kernels(oc as usize)
            .filter(|&(e_ic, _, _)| e_ic == ic as usize)
            .map(|(_, _, vals)| vals.to_vec())
            .collect();
        prop_assert_eq!(got, want);
    }
}

#[test]
fn out_of_range_kernels_are_kept_out_of_the_way() {
    // oc 9 is never run; ic 7 (out of range) sorts after the valid ones.
    let groups = vec![
        PatternGroup::from_kernels(
            vec![(0, 0), (1, 1)],
            &[
                (1, 7, &[1.0, 2.0]),
                (9, 0, &[3.0, 4.0]),
                (1, 0, &[5.0, 6.0]),
            ],
        ),
        PatternGroup::from_kernels(vec![(2, 2)], &[(0, 1, &[7.0]), (1, 1, &[8.0])]),
    ];
    let layer = PatternCompressedConv::from_parts(2, 2, 3, 1, 1, groups);
    let pack = layer.pack();
    assert_eq!(pack.kernel_count(), 4);
    let row = |oc| -> Vec<(usize, Vec<f32>)> {
        let kernels = pack.oc_kernels(oc);
        kernels.map(|(ic, _, vals)| (ic, vals.to_vec())).collect()
    };
    assert_eq!(row(0), vec![(1, vec![7.0])]);
    assert_eq!(
        row(1),
        vec![(0, vec![5.0, 6.0]), (1, vec![8.0]), (7, vec![1.0, 2.0])]
    );
    assert!(row(9).is_empty());
    // One finding for the input channel, one for the output channel.
    let codes: Vec<&str> = layer.validate().iter().map(|v| v.code).collect();
    assert_eq!(codes, ["RV011", "RV011"], "{:?}", layer.validate());
}
