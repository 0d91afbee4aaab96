//! The pack builder's order contract, against the builder it replaced.
//!
//! `Pack::from_groups` is a counting sort on `(oc, ic)`. The tiled
//! driver's bit-identity to the scalar oracle rests on the order it
//! produces, so this pins it three ways over random kEP / 1×1 /
//! unpruned layers:
//!
//! 1. the pack does not depend on kernel order inside a group, and its
//!    per-`oc` entries are `ic`-ascending;
//! 2. kernels that share an `(oc, ic)` (corrupt input; RV011) keep
//!    group order, then kernel order — the sort is stable;
//! 3. the whole layout — ranges, entries, offset table, value array —
//!    equals what the staging builder it replaced (per-`oc`
//!    `Vec<Vec<_>>`, stable `sort_by_key(ic)`) lays out. `Pack`'s fields
//!    are private, so [`reference`] mirrors the struct under the same
//!    names and the two are compared through `Debug`, which prints
//!    every field of both.

use proptest::prelude::*;
use rtoss_core::pattern::canonical_set;
use rtoss_core::prune1x1::prune_1x1_weights;
use rtoss_core::prune3x3::prune_3x3_weights;
use rtoss_sparse::{Pack, PatternCompressedConv, PatternGroup};
use rtoss_tensor::{init, Tensor};

/// The staging builder `Pack::from_groups` replaced, kept as the
/// reference. Field and type names mirror `rtoss_sparse::pack` so the
/// `Debug` renderings are comparable.
mod reference {
    use rtoss_sparse::PatternGroup;

    #[derive(Debug)]
    #[allow(dead_code)] // read through Debug only
    pub struct Entry {
        ic: u32,
        taps: u32,
        off: u32,
        val: u32,
    }

    #[derive(Debug)]
    #[allow(dead_code)] // read through Debug only
    pub struct Pack {
        out_ch: usize,
        in_ch: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        oc_ranges: Vec<(u32, u32)>,
        entries: Vec<Entry>,
        offsets: Vec<(u8, u8)>,
        values: Vec<f32>,
        uniform: Option<u32>,
    }

    pub fn from_groups(
        out_ch: usize,
        in_ch: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        groups: &[PatternGroup],
    ) -> Pack {
        type Staged<'a> = (u32, u32, u32, &'a [f32]);
        let mut offsets = Vec::new();
        let mut staged: Vec<Vec<Staged>> = vec![Vec::new(); out_ch];
        for g in groups {
            let off = offsets.len() as u32;
            offsets.extend(
                g.offsets
                    .iter()
                    .map(|&(ky, kx)| (ky.min(255) as u8, kx.min(255) as u8)),
            );
            for (oc, ic, values) in g.kernels() {
                if oc >= out_ch {
                    continue;
                }
                let taps = (g.offsets.len() as u32).min(values.len() as u32);
                staged[oc].push((ic as u32, taps, off, values));
            }
        }
        let mut oc_ranges = Vec::with_capacity(out_ch);
        let mut entries = Vec::new();
        let mut values = Vec::new();
        for ocs in &mut staged {
            ocs.sort_by_key(|&(ic, _, _, _)| ic); // stable: ties keep group order
            let start = entries.len() as u32;
            for &(ic, taps, off, vals) in ocs.iter() {
                let val = values.len() as u32;
                values.extend_from_slice(&vals[..taps as usize]);
                entries.push(Entry { ic, taps, off, val });
            }
            oc_ranges.push((start, entries.len() as u32));
        }
        let uniform = entries
            .first()
            .map(|e| e.taps)
            .filter(|&t| entries.iter().all(|e| e.taps == t));
        Pack {
            out_ch,
            in_ch,
            kernel,
            stride,
            pad,
            oc_ranges,
            entries,
            offsets,
            values,
            uniform,
        }
    }
}

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

fn assert_matches_reference(pc: &PatternCompressedConv) {
    let want = reference::from_groups(
        pc.out_channels(),
        pc.in_channels(),
        pc.kernel_size(),
        pc.stride(),
        pc.padding(),
        pc.groups(),
    );
    assert_eq!(format!("{:?}", pc.pack()), format!("{want:?}"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pack_is_independent_of_kernel_order_and_equals_the_staging_builder(
        kind in 0usize..8,
        o in 1usize..12,
        i in 1usize..10,
        stride in 1usize..3,
        seed in 0u64..1000,
    ) {
        let w = layer(kind, o, i, 0xC0DE ^ seed);
        let pad = w.shape()[2] / 2;
        let pc = PatternCompressedConv::from_dense(&w, stride, pad).unwrap();
        assert_matches_reference(&pc);
        prop_assert_eq!(pc.pack().to_dense().as_slice(), w.as_slice());

        let groups: Vec<PatternGroup> = pc
            .groups()
            .iter()
            .enumerate()
            .map(|(gi, g)| shuffled(g, seed ^ 0x5AFE ^ (gi as u64) << 32))
            .collect();
        let again = rebuilt(&pc, groups);
        assert_matches_reference(&again);
        prop_assert_eq!(again.pack(), pc.pack(), "kind {} {}x{} seed {}", kind, o, i, seed);

        for oc in 0..o {
            let ics: Vec<usize> = pc.pack().oc_kernels(oc).map(|(ic, _, _)| ic).collect();
            prop_assert!(ics.windows(2).all(|w| w[0] < w[1]), "oc {}: {:?}", oc, ics);
        }
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
        let mut groups = pc.groups().to_vec();
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
        assert_matches_reference(&dup);
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
fn out_of_range_kernels_match_the_staging_builder_too() {
    // oc 9 is dropped; ic 7 (out of range) sorts after the valid ones.
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
    let pack = Pack::from_groups(2, 2, 3, 1, 1, &groups);
    let want = reference::from_groups(2, 2, 3, 1, 1, &groups);
    assert_eq!(format!("{pack:?}"), format!("{want:?}"));
    assert_eq!(pack.kernel_count(), 4);
}
