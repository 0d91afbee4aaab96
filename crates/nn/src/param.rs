use rtoss_tensor::{Tensor, TensorError};

/// A trainable parameter: value, accumulated gradient, and an optional
/// pruning mask.
///
/// The mask is the mechanism by which R-TOSS keeps pruned weights pruned
/// during iterative fine-tuning: after every optimizer step the mask is
/// re-applied (`value *= mask`), reproducing the paper's "kernel masks
/// deployed during inference" (§IV.C).
///
/// # Example
///
/// ```
/// use rtoss_nn::Param;
/// use rtoss_tensor::Tensor;
///
/// # fn main() -> Result<(), rtoss_tensor::TensorError> {
/// let mut p = Param::new(Tensor::ones(&[2, 2]));
/// let mask = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2])?;
/// p.set_mask(mask)?;
/// assert_eq!(p.value.as_slice(), &[1.0, 0.0, 0.0, 1.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Param {
    /// Current parameter value.
    pub value: Tensor,
    /// Accumulated gradient (same shape as `value`).
    pub grad: Tensor,
    mask: Option<Tensor>,
}

impl Param {
    /// Wraps a tensor as a trainable parameter with zeroed gradient.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape());
        Param {
            value,
            grad,
            mask: None,
        }
    }

    /// Installs a binary (0/1) pruning mask and immediately applies it to
    /// the value. Subsequent [`Param::apply_mask`] calls keep enforcing it.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the mask shape differs
    /// from the value shape.
    pub fn set_mask(&mut self, mask: Tensor) -> Result<(), TensorError> {
        if mask.shape() != self.value.shape() {
            return Err(TensorError::ShapeMismatch {
                left: self.value.shape().to_vec(),
                right: mask.shape().to_vec(),
                op: "set_mask",
            });
        }
        self.mask = Some(mask);
        self.apply_mask();
        Ok(())
    }

    /// The installed pruning mask, if any.
    pub fn mask(&self) -> Option<&Tensor> {
        self.mask.as_ref()
    }

    /// Removes the pruning mask (does not restore pruned values).
    pub fn clear_mask(&mut self) {
        self.mask = None;
    }

    /// Re-applies the mask to the value (no-op when unmasked).
    pub fn apply_mask(&mut self) {
        if let Some(mask) = &self.mask {
            assert_eq!(
                self.value.shape(),
                mask.shape(),
                "mask shape verified at set_mask"
            );
            for (v, &m) in self.value.as_mut_slice().iter_mut().zip(mask.as_slice()) {
                *v *= m;
            }
        }
    }

    /// Zeroes the accumulated gradient.
    pub fn zero_grad(&mut self) {
        self.grad.fill(0.0);
    }

    /// Accumulates `g` into the gradient.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `g` has a different shape.
    pub fn accumulate_grad(&mut self, g: &Tensor) -> Result<(), TensorError> {
        self.grad.add_scaled_in_place(g, 1.0)
    }

    /// Number of scalar parameters.
    pub fn numel(&self) -> usize {
        self.value.numel()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_is_applied_and_sticky() {
        let mut p = Param::new(Tensor::full(&[4], 2.0));
        let mask = Tensor::from_vec(vec![1.0, 0.0, 1.0, 0.0], &[4]).unwrap();
        p.set_mask(mask).unwrap();
        assert_eq!(p.value.as_slice(), &[2.0, 0.0, 2.0, 0.0]);
        // Simulate an SGD update writing into masked slots.
        p.value = Tensor::full(&[4], 3.0);
        p.apply_mask();
        assert_eq!(p.value.as_slice(), &[3.0, 0.0, 3.0, 0.0]);
    }

    #[test]
    fn mask_shape_checked() {
        let mut p = Param::new(Tensor::zeros(&[4]));
        assert!(p.set_mask(Tensor::zeros(&[3])).is_err());
    }

    #[test]
    fn grad_accumulation() {
        let mut p = Param::new(Tensor::zeros(&[2]));
        p.accumulate_grad(&Tensor::ones(&[2])).unwrap();
        p.accumulate_grad(&Tensor::ones(&[2])).unwrap();
        assert_eq!(p.grad.as_slice(), &[2.0, 2.0]);
        p.zero_grad();
        assert_eq!(p.grad.as_slice(), &[0.0, 0.0]);
    }
}
