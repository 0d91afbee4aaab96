//! Pins the pruner's decisions: every conv's mask and weight bits and
//! the per-layer zero counts of a pruned `yolov5s_twin(8, 2, 7)` must
//! hash to constants captured before the pruner was made to work in
//! place (commit dadc57d). A changed pattern choice anywhere — in
//! Algorithm 2's L2 contest, Algorithm 3's 9-chunk pooling or
//! Algorithm 1's parent→child subset — changes a mask bit and so the
//! hash.

use rtoss::core::{EntryPattern, Pruner, RTossPruner};
use rtoss::models::yolov5s_twin;

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn floats(&mut self, values: &[f32]) {
        for v in values {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }
}

/// `(hash of every conv's mask and weight bits, hash of the report's
/// per-layer zero counts, total zeros)`.
fn prune_fingerprint(entry: EntryPattern) -> (u64, u64, usize) {
    let mut model = yolov5s_twin(8, 2, 7).expect("twin builds");
    let report = RTossPruner::new(entry)
        .prune_graph(&mut model.graph)
        .expect("prunes");
    let mut weights = Fnv::new();
    for id in model.graph.conv_ids() {
        let param = model.graph.conv(id).expect("conv id").weight();
        match param.mask() {
            Some(mask) => {
                weights.bytes(&[1]);
                weights.floats(mask.as_slice());
            }
            None => weights.bytes(&[0]),
        }
        weights.floats(param.value.as_slice());
    }
    let mut zeros = Fnv::new();
    for layer in &report.layers {
        zeros.bytes(layer.name.as_bytes());
        zeros.bytes(&(layer.zeros as u64).to_le_bytes());
    }
    (weights.0, zeros.0, report.total_zeros())
}

#[test]
fn pruned_twin_matches_parent_commit_bit_for_bit() {
    let golden = [
        (
            EntryPattern::Two,
            (
                0x21b8_58c8_78d8_e593u64,
                0xea8c_a7cb_0abd_998cu64,
                18274usize,
            ),
        ),
        (
            EntryPattern::Three,
            (0x052c_2ba5_a9da_57f6, 0x51c6_b82b_7edf_7e63, 15679),
        ),
        (
            EntryPattern::Five,
            (0x9a4d_c311_a86a_754a, 0xf097_1fb9_24c1_4d3c, 10489),
        ),
    ];
    let got = golden.map(|(entry, _)| (entry, prune_fingerprint(entry)));
    assert_eq!(got, golden, "got {got:#x?}");
}
