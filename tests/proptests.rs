//! Cross-crate property-based tests (proptest) on the workspace's core
//! invariants.

use proptest::prelude::*;
use rtoss::core::pattern::{canonical_set, generate_adjacent, Pattern};
use rtoss::core::prune1x1::prune_1x1_weights;
use rtoss::core::prune3x3::prune_3x3_weights;
use rtoss::data::{nms, BBox, Detection};
use rtoss::sparse::exec::{
    conv2d_packed_into, conv2d_pattern_scalar_into_with, conv2d_pattern_sparse_with,
    conv2d_unstructured_with,
};
use rtoss::sparse::{ExecConfig, PatternCompressedConv, UnstructuredSparseConv};
use rtoss::tensor::exec::Epilogue;
use rtoss::tensor::{ops, Tensor};

fn tensor_strategy(dims: Vec<usize>) -> impl Strategy<Value = Tensor> {
    let n: usize = dims.iter().product();
    proptest::collection::vec(-1.0f32..1.0, n)
        .prop_map(move |data| Tensor::from_vec(data, &dims).expect("len matches"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pattern_masks_keep_exactly_k_weights(
        k in 2usize..=5,
        w in (2usize..5, 2usize..5).prop_flat_map(|(o, i)| tensor_strategy(vec![o, i, 3, 3]))
    ) {
        let set = canonical_set(k).expect("valid k");
        let mut w = w;
        let out = prune_3x3_weights(&mut w, &set).expect("3x3 weights");
        let (o, i) = (w.shape()[0], w.shape()[1]);
        for ki in 0..o * i {
            let mask_nz = out.mask.as_slice()[ki * 9..(ki + 1) * 9]
                .iter().filter(|&&v| v != 0.0).count();
            prop_assert_eq!(mask_nz, k);
            let w_nz = w.as_slice()[ki * 9..(ki + 1) * 9]
                .iter().filter(|&&v| v != 0.0).count();
            prop_assert!(w_nz <= k);
        }
    }

    #[test]
    fn pruning_3x3_is_idempotent(
        w in tensor_strategy(vec![3, 3, 3, 3])
    ) {
        let set = canonical_set(3).expect("valid k");
        let mut w1 = w.clone();
        prune_3x3_weights(&mut w1, &set).expect("prunes");
        let mut w2 = w1.clone();
        prune_3x3_weights(&mut w2, &set).expect("prunes");
        prop_assert_eq!(w1, w2);
    }

    #[test]
    fn pruning_never_increases_l2(
        k in 2usize..=5,
        w in tensor_strategy(vec![2, 2, 3, 3])
    ) {
        let set = canonical_set(k).expect("valid k");
        let before = w.l2_norm();
        let mut w = w;
        prune_3x3_weights(&mut w, &set).expect("prunes");
        prop_assert!(w.l2_norm() <= before + 1e-6);
    }

    #[test]
    fn one_by_one_survivors_keep_position_and_value(
        o in 1usize..8, i in 1usize..8
    ) {
        let w = rtoss::tensor::init::uniform(
            &mut rtoss::tensor::init::rng((o * 31 + i) as u64),
            &[o, i, 1, 1], -1.0, 1.0);
        let set = canonical_set(2).expect("valid k");
        let before = w.clone();
        let mut w = w;
        prune_1x1_weights(&mut w, &set).expect("prunes");
        for (idx, (&a, &b)) in before.as_slice().iter().zip(w.as_slice()).enumerate() {
            if b != 0.0 {
                prop_assert_eq!(a, b, "weight {} moved", idx);
            }
        }
        // Tail chunk fully pruned.
        let n = o * i;
        let full = (n / 9) * 9;
        prop_assert!(w.as_slice()[full..].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn sparse_executors_match_dense(
        seed in 0u64..1000,
        k in 2usize..=4,
        stride in 1usize..=2
    ) {
        let mut rng = rtoss::tensor::init::rng(seed);
        let w0 = rtoss::tensor::init::uniform(&mut rng, &[4, 3, 3, 3], -1.0, 1.0);
        let x = rtoss::tensor::init::uniform(&mut rng, &[1, 3, 8, 8], -1.0, 1.0);
        let set = canonical_set(k).expect("valid k");
        let mut w = w0;
        prune_3x3_weights(&mut w, &set).expect("prunes");
        let dense = ops::conv2d(&x, &w, None, stride, 1).expect("conv");
        let pc = PatternCompressedConv::from_dense(&w, stride, 1).expect("compress");
        let un = UnstructuredSparseConv::from_dense(&w, stride, 1).expect("compress");
        let a = conv2d_pattern_sparse_with(&x, &pc, None, &ExecConfig::default()).expect("sparse conv");
        let b = conv2d_unstructured_with(&x, &un, None, &ExecConfig::default()).expect("coo conv");
        for ((&d, &pa), &ub) in dense.as_slice().iter()
            .zip(a.as_slice()).zip(b.as_slice()) {
            prop_assert!((d - pa).abs() < 1e-4, "pattern exec mismatch {} vs {}", d, pa);
            prop_assert!((d - ub).abs() < 1e-4, "coo exec mismatch {} vs {}", d, ub);
        }
    }

    #[test]
    fn compressed_round_trip_is_lossless(
        seed in 0u64..1000
    ) {
        let mut rng = rtoss::tensor::init::rng(seed);
        let w0 = rtoss::tensor::init::uniform(&mut rng, &[5, 4, 3, 3], -1.0, 1.0);
        let set = canonical_set(2).expect("valid k");
        let mut w = w0;
        prune_3x3_weights(&mut w, &set).expect("prunes");
        let pc = PatternCompressedConv::from_dense(&w, 1, 1).expect("compress");
        prop_assert_eq!(pc.to_dense(), w);
    }

    #[test]
    fn adjacent_patterns_are_connected_and_complete(
        k in 1usize..=8
    ) {
        let all = generate_adjacent(k).expect("valid k");
        for p in &all {
            prop_assert_eq!(p.weight_count(), k);
            prop_assert!(p.is_connected());
        }
        // Completeness: every connected k-pattern appears.
        for bits in 0u16..(1 << 9) {
            if bits.count_ones() as usize == k {
                let p = Pattern::from_bits(bits).expect("valid bits");
                prop_assert_eq!(all.contains(&p), p.is_connected());
            }
        }
    }

    #[test]
    fn iou_is_symmetric_and_bounded(
        ax in 0.0f32..1.0, ay in 0.0f32..1.0, aw in 0.01f32..0.5, ah in 0.01f32..0.5,
        bx in 0.0f32..1.0, by in 0.0f32..1.0, bw in 0.01f32..0.5, bh in 0.01f32..0.5,
    ) {
        let a = BBox::new(ax, ay, aw, ah);
        let b = BBox::new(bx, by, bw, bh);
        let iou = a.iou(&b);
        prop_assert!((0.0..=1.0 + 1e-6).contains(&iou));
        prop_assert!((iou - b.iou(&a)).abs() < 1e-6);
        // Self-IoU is 1 up to f32 rounding of corner arithmetic (tiny
        // boxes lose relative precision in area subtraction).
        prop_assert!((a.iou(&a) - 1.0).abs() < 1e-3);
    }

    #[test]
    fn nms_output_is_conflict_free(
        boxes in proptest::collection::vec(
            (0.05f32..0.95, 0.05f32..0.95, 0.05f32..0.3, 0.05f32..0.3, 0.0f32..1.0, 0usize..3),
            0..20
        )
    ) {
        let dets: Vec<Detection> = boxes.into_iter()
            .map(|(cx, cy, w, h, score, class)| Detection {
                bbox: BBox::new(cx, cy, w, h), score, class,
            })
            .collect();
        let kept = nms(&dets, 0.5);
        prop_assert!(kept.len() <= dets.len());
        for (i, a) in kept.iter().enumerate() {
            for b in kept.iter().skip(i + 1) {
                if a.class == b.class {
                    prop_assert!(a.bbox.iou(&b.bbox) <= 0.5 + 1e-6);
                }
            }
        }
    }

    #[test]
    fn conv2d_is_linear_in_the_input(
        seed in 0u64..500
    ) {
        let mut rng = rtoss::tensor::init::rng(seed);
        let w = rtoss::tensor::init::uniform(&mut rng, &[2, 2, 3, 3], -1.0, 1.0);
        let x1 = rtoss::tensor::init::uniform(&mut rng, &[1, 2, 6, 6], -1.0, 1.0);
        let x2 = rtoss::tensor::init::uniform(&mut rng, &[1, 2, 6, 6], -1.0, 1.0);
        let y1 = ops::conv2d(&x1, &w, None, 1, 1).expect("conv");
        let y2 = ops::conv2d(&x2, &w, None, 1, 1).expect("conv");
        let sum = x1.add(&x2).expect("add");
        let ysum = ops::conv2d(&sum, &w, None, 1, 1).expect("conv");
        let expect = y1.add(&y2).expect("add");
        for (&a, &b) in ysum.as_slice().iter().zip(expect.as_slice()) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }
}

// Executor equivalence across *random geometry* — shapes, strides,
// pads, and batch sizes all drawn per case — plus the batched entry
// points the serving layer depends on.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sparse_executors_match_dense_across_geometry(
        seed in 0u64..1000,
        k in 2usize..=4,
        o in 1usize..5,
        c in 1usize..4,
        h in 4usize..10,
        wid in 4usize..10,
        stride in 1usize..=3,
        pad in 0usize..=2,
        batch in 1usize..=3,
    ) {
        let mut rng = rtoss::tensor::init::rng(seed);
        let w3 = rtoss::tensor::init::uniform(&mut rng, &[o, c, 3, 3], -1.0, 1.0);
        let w1 = rtoss::tensor::init::uniform(&mut rng, &[o, c, 1, 1], -1.0, 1.0);
        let x = rtoss::tensor::init::uniform(&mut rng, &[batch, c, h, wid], -1.0, 1.0);
        let bias_t = rtoss::tensor::init::uniform(&mut rng, &[o], -1.0, 1.0);
        let bias = bias_t.as_slice();
        let set = canonical_set(k).expect("valid k");
        let mut pruned = w3.clone();
        prune_3x3_weights(&mut pruned, &set).expect("prunes");
        // One tap fewer in the first kernel only: a mixed-arity pack.
        let mut ragged = pruned.clone();
        if let Some(v) = ragged.as_mut_slice().iter_mut().find(|v| **v != 0.0) {
            *v = 0.0;
        }
        // Every pack shape the one driver serves: the kEP pattern pack,
        // the unpruned 3x3 layer (arity 9), a 1x1 layer (arity 1) and a
        // pack with no uniform arity.
        let single = o * c == 1;
        for (what, w, arity) in [
            ("kEP", &pruned, Some(k)),
            ("unpruned 3x3", &w3, Some(9)),
            ("1x1", &w1, Some(1)),
            ("ragged", &ragged, single.then_some(k - 1)),
        ] {
            let dense = ops::conv2d(&x, w, Some(bias), stride, pad).expect("conv");
            let pc = PatternCompressedConv::from_dense(w, stride, pad).expect("compress");
            let un = UnstructuredSparseConv::from_dense(w, stride, pad).expect("compress");
            prop_assert_eq!(pc.pack().uniform_arity(), arity, "{} pattern pack", what);
            prop_assert_eq!(un.pack().uniform_arity(), arity, "{} coo pack", what);
            let serial = ExecConfig::serial();
            let a = conv2d_pattern_sparse_with(&x, &pc, Some(bias), &serial).expect("sparse conv");
            let b = conv2d_unstructured_with(&x, &un, Some(bias), &serial).expect("coo conv");
            prop_assert_eq!(a.shape(), dense.shape());
            prop_assert_eq!(b.shape(), dense.shape());
            for ((&d, &pa), &ub) in dense.as_slice().iter()
                .zip(a.as_slice()).zip(b.as_slice()) {
                prop_assert!((d - pa).abs() < 1e-4, "{} pattern mismatch {} vs {}", what, d, pa);
                prop_assert!((d - ub).abs() < 1e-4, "{} coo mismatch {} vs {}", what, d, ub);
            }
            // The kernel contract: both packs through the tiled driver
            // are *bitwise* the scalar reference (NaN-dirty buffers
            // prove every element is overwritten).
            let mut want = vec![f32::NAN; dense.numel()];
            conv2d_pattern_scalar_into_with(
                x.as_slice(), x.shape(), &pc, Some(bias), &Epilogue::NONE, &mut want, &serial,
            ).expect("scalar reference");
            for (name, pack) in [("pattern", pc.pack()), ("coo", un.pack())] {
                let mut got = vec![f32::NAN; dense.numel()];
                conv2d_packed_into(
                    x.as_slice(), x.shape(), pack, Some(bias), &Epilogue::NONE, &mut got, &serial,
                ).expect("tiled driver");
                prop_assert_eq!(&got, &want, "{} {} pack vs scalar", what, name);
            }
        }
    }

    #[test]
    fn batch_stack_split_round_trips(
        seed in 0u64..1000,
        sizes in proptest::collection::vec(1usize..=3, 1..=4),
        c in 1usize..4,
        h in 2usize..6,
    ) {
        let mut rng = rtoss::tensor::init::rng(seed);
        let xs: Vec<Tensor> = sizes.iter()
            .map(|&n| rtoss::tensor::init::uniform(&mut rng, &[n, c, h, h], -1.0, 1.0))
            .collect();
        let refs: Vec<&Tensor> = xs.iter().collect();
        let stacked = ops::batch_stack(&refs).expect("stacks");
        prop_assert_eq!(stacked.shape()[0], sizes.iter().sum::<usize>());
        let parts = ops::batch_split(&stacked, &sizes).expect("splits");
        for (orig, part) in xs.iter().zip(&parts) {
            prop_assert_eq!(orig, part);
        }
    }

    #[test]
    fn parallel_executors_bit_identical_to_serial_across_geometry(
        seed in 0u64..1000,
        k in 2usize..=4,
        o in 1usize..6,
        c in 1usize..4,
        h in 4usize..10,
        wid in 4usize..10,
        stride in 1usize..=3,
        pad in 0usize..=2,
        batch in 1usize..=3,
        threads in 1usize..=8,
    ) {
        let mut rng = rtoss::tensor::init::rng(seed);
        let mut w = rtoss::tensor::init::uniform(&mut rng, &[o, c, 3, 3], -1.0, 1.0);
        let x = rtoss::tensor::init::uniform(&mut rng, &[batch, c, h, wid], -1.0, 1.0);
        let bias_t = rtoss::tensor::init::uniform(&mut rng, &[o], -1.0, 1.0);
        let bias = bias_t.as_slice();
        let set = canonical_set(k).expect("valid k");
        prune_3x3_weights(&mut w, &set).expect("prunes");
        let serial = ExecConfig::serial();
        let par = ExecConfig::with_threads(threads);

        // Dense tiled path: threads=1 is the exact legacy loop, so the
        // parallel result must be bit-identical to it, not just close.
        let d1 = ops::conv2d_with(&x, &w, Some(bias), stride, pad, &serial).expect("conv");
        let d2 = ops::conv2d_with(&x, &w, Some(bias), stride, pad, &par).expect("conv");
        prop_assert_eq!(d1.as_slice(), d2.as_slice());

        let pc = PatternCompressedConv::from_dense(&w, stride, pad).expect("compress");
        let p1 = conv2d_pattern_sparse_with(&x, &pc, Some(bias), &serial).expect("conv");
        let p2 = conv2d_pattern_sparse_with(&x, &pc, Some(bias), &par).expect("conv");
        prop_assert_eq!(p1.as_slice(), p2.as_slice());

        let un = UnstructuredSparseConv::from_dense(&w, stride, pad).expect("compress");
        let u1 = conv2d_unstructured_with(&x, &un, Some(bias), &serial).expect("conv");
        let u2 = conv2d_unstructured_with(&x, &un, Some(bias), &par).expect("conv");
        prop_assert_eq!(u1.as_slice(), u2.as_slice());
    }

    #[test]
    fn batched_sparse_conv_is_bit_identical_to_per_sample(
        seed in 0u64..1000,
        k in 2usize..=4,
        stride in 1usize..=2,
        pad in 0usize..=1,
        sizes in proptest::collection::vec(1usize..=2, 2..=4),
    ) {
        let mut rng = rtoss::tensor::init::rng(seed);
        let mut w = rtoss::tensor::init::uniform(&mut rng, &[3, 2, 3, 3], -1.0, 1.0);
        let set = canonical_set(k).expect("valid k");
        prune_3x3_weights(&mut w, &set).expect("prunes");
        let pc = PatternCompressedConv::from_dense(&w, stride, pad).expect("compress");
        let xs: Vec<Tensor> = sizes.iter()
            .map(|&n| rtoss::tensor::init::uniform(&mut rng, &[n, 2, 7, 7], -1.0, 1.0))
            .collect();
        let refs: Vec<&Tensor> = xs.iter().collect();
        let stacked = ops::batch_stack(&refs).expect("stacks");
        let batched = conv2d_pattern_sparse_with(&stacked, &pc, None, &ExecConfig::default()).expect("batched conv");
        let parts = ops::batch_split(&batched, &sizes).expect("splits");
        for (x, part) in xs.iter().zip(&parts) {
            let single = conv2d_pattern_sparse_with(x, &pc, None, &ExecConfig::default()).expect("single conv");
            // Bit-identical — the serving layer's micro-batching
            // correctness rests on this, not on approximate equality.
            prop_assert_eq!(single.as_slice(), part.as_slice());
        }
    }
}
