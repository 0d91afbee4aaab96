//! Property tests for the register-tiled conv microkernels.
//!
//! Two contracts, randomized over shapes, strides, paddings, entry
//! patterns, bias/epilogue mixes, and thread widths:
//!
//! 1. **Pack round-trip** — both views of the kernel-major pack
//!    (pattern and COO) reconstruct the pruned dense weights *bitwise*
//!    through `to_dense()`: the pack layout loses nothing and invents
//!    nothing. (RV090 re-checks this statically per compiled layer.)
//! 2. **Kernel equivalence** — the tiled driver, fed either pack, with
//!    and without bias and a fused epilogue, produces bitwise the
//!    output of the scalar reference executor at every thread width.
//!    This is the randomized face of RV092: any divergence in canonical
//!    accumulation order, padded staging, or ragged-edge writeback
//!    shows up as a bit flip, not a tolerance failure. (The root
//!    `tests/proptests.rs` covers the arity-9, arity-1 and mixed-arity
//!    packs.)

use proptest::prelude::*;
use rtoss_core::pattern::canonical_set;
use rtoss_core::prune3x3::prune_3x3_weights;
use rtoss_sparse::exec::{conv2d_packed_into, conv2d_pattern_scalar_into_with};
use rtoss_sparse::{PatternCompressedConv, UnstructuredSparseConv};
use rtoss_tensor::exec::Epilogue;
use rtoss_tensor::ops::out_extent;
use rtoss_tensor::{init, EpilogueAct, ExecConfig, Tensor};

/// Random pruned 3×3 weights: `o`×`i` kernels kept to `k_entries` taps.
fn pruned(o: usize, i: usize, k_entries: usize, seed: u64) -> Tensor {
    let mut w = init::uniform(&mut init::rng(seed), &[o, i, 3, 3], -1.0, 1.0);
    prune_3x3_weights(&mut w, &canonical_set(k_entries).unwrap()).unwrap();
    w
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn packs_round_trip_to_dense(
        o in 1usize..9,
        i in 1usize..7,
        k_entries in 2usize..5,
        seed in 0u64..1000,
    ) {
        let w = pruned(o, i, k_entries, 0xF00D ^ seed);
        let pc = PatternCompressedConv::from_dense(&w, 1, 1).unwrap();
        prop_assert_eq!(
            pc.pack().to_dense().as_slice(),
            w.as_slice(),
            "pattern pack: o={} i={} {}EP", o, i, k_entries
        );
        let un = UnstructuredSparseConv::from_dense(&w, 1, 1).unwrap();
        prop_assert_eq!(
            un.pack().to_dense().as_slice(),
            w.as_slice(),
            "coo pack: o={} i={} {}EP", o, i, k_entries
        );
    }

    #[test]
    fn tiled_driver_bit_identical_to_scalar_on_both_packs(
        o in 1usize..8,
        i in 1usize..6,
        h in 3usize..20,
        wd in 3usize..20,
        batch in 1usize..3,
        stride in 1usize..3,
        pad in 0usize..2,
        k_entries in 2usize..5,
        bias_sel in 0usize..2,
        epi_sel in 0usize..2,
        seed in 0u64..1000,
    ) {
        let w = pruned(o, i, k_entries, 0xBEEF ^ seed);
        let x = init::uniform(&mut init::rng(seed ^ 7), &[batch, i, h, wd], -1.0, 1.0);
        let with_bias = bias_sel == 1;
        let with_epilogue = epi_sel == 1;
        let bias: Option<Vec<f32>> =
            with_bias.then(|| (0..o).map(|v| v as f32 * 0.1 - 0.2).collect());
        let scale: Vec<f32> = (0..o).map(|v| 0.5 + v as f32 * 0.25).collect();
        let shift: Vec<f32> = (0..o).map(|v| v as f32 * -0.3).collect();
        let epi = if with_epilogue {
            Epilogue { affine: Some((&scale, &shift)), act: Some(EpilogueAct::Relu) }
        } else {
            Epilogue::NONE
        };
        let label = format!(
            "o={o} i={i} {h}x{wd} b={batch} s{stride}p{pad} {k_entries}EP \
             bias={with_bias} epi={with_epilogue}"
        );
        let pc = PatternCompressedConv::from_dense(&w, stride, pad).unwrap();
        let un = UnstructuredSparseConv::from_dense(&w, stride, pad).unwrap();
        let oh = out_extent(h, 3, stride, pad).unwrap();
        let ow = out_extent(wd, 3, stride, pad).unwrap();
        let n_out = batch * o * oh * ow;
        let mut want = vec![f32::NAN; n_out];
        conv2d_pattern_scalar_into_with(
            x.as_slice(), x.shape(), &pc, bias.as_deref(), &epi, &mut want,
            &ExecConfig::serial(),
        ).unwrap();
        for threads in 1usize..=4 {
            let cfg = ExecConfig::with_threads(threads);
            for (name, pack) in [("pattern", pc.pack()), ("coo", un.pack())] {
                // NAN-dirty buffers prove every element is overwritten.
                let mut got = vec![f32::NAN; n_out];
                conv2d_packed_into(
                    x.as_slice(), x.shape(), pack, bias.as_deref(), &epi, &mut got, &cfg,
                ).unwrap();
                prop_assert_eq!(&got, &want, "{} vs scalar, {} t={}", name, label, threads);
            }
        }
    }
}
