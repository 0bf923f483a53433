//! Workload descriptors, including every operator configuration of the
//! paper's Table 2 (all conv2d layers of ResNet-18 as C1–C12, all
//! depthwise conv2d layers of MobileNet as D1–D9).

use tvm_ir::DType;

/// A 2-D convolution workload (NCHW).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Conv2dWorkload {
    /// Batch size.
    pub batch: i64,
    /// Input spatial height (= width in all Table 2 configs).
    pub size: i64,
    /// Input channels.
    pub in_c: i64,
    /// Output channels.
    pub out_c: i64,
    /// Square kernel size.
    pub kernel: i64,
    /// Stride.
    pub stride: i64,
    /// Padding ("SAME" in Table 2: pad = kernel / 2).
    pub pad: i64,
}

impl Conv2dWorkload {
    /// Output spatial size.
    pub fn out_size(&self) -> i64 {
        (self.size + 2 * self.pad - self.kernel) / self.stride + 1
    }

    /// Total multiply-accumulates.
    pub fn macs(&self) -> f64 {
        let o = self.out_size() as f64;
        self.batch as f64
            * self.out_c as f64
            * o
            * o
            * self.in_c as f64
            * (self.kernel * self.kernel) as f64
    }

    /// FLOPs (2 per MAC).
    pub fn flops(&self) -> f64 {
        2.0 * self.macs()
    }

    /// Shape name like `conv2d_56x56_64to64_k3s1`; `topi::task_name` keys
    /// tuning journals with it.
    pub fn describe(&self) -> String {
        format!(
            "conv2d_{}x{}_{}to{}_k{}s{}",
            self.size, self.size, self.in_c, self.out_c, self.kernel, self.stride
        )
    }
}

/// A depthwise 2-D convolution workload (channel multiplier 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DepthwiseConv2dWorkload {
    /// Batch size.
    pub batch: i64,
    /// Input spatial size.
    pub size: i64,
    /// Channels.
    pub channels: i64,
    /// Square kernel size.
    pub kernel: i64,
    /// Stride.
    pub stride: i64,
    /// Padding.
    pub pad: i64,
}

impl DepthwiseConv2dWorkload {
    /// Output spatial size.
    pub fn out_size(&self) -> i64 {
        (self.size + 2 * self.pad - self.kernel) / self.stride + 1
    }

    /// FLOPs.
    pub fn flops(&self) -> f64 {
        let o = self.out_size() as f64;
        2.0 * self.batch as f64 * self.channels as f64 * o * o * (self.kernel * self.kernel) as f64
    }

    /// Shape name like `dwconv2d_56x56_c128_k3s1`; `topi::task_name` keys
    /// tuning journals with it.
    pub fn describe(&self) -> String {
        format!(
            "dwconv2d_{}x{}_c{}_k{}s{}",
            self.size, self.size, self.channels, self.kernel, self.stride
        )
    }
}

/// A dense (fully-connected) workload: `out[m, n] = data[m, k] x w[n, k]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DenseWorkload {
    /// Rows (batch).
    pub m: i64,
    /// Output features.
    pub n: i64,
    /// Input features.
    pub k: i64,
    /// Element type.
    pub dtype: DType,
}

impl DenseWorkload {
    /// FLOPs.
    pub fn flops(&self) -> f64 {
        2.0 * self.m as f64 * self.n as f64 * self.k as f64
    }

    /// Short description for logs/task names.
    pub fn describe(&self) -> String {
        format!("dense_{}x{}x{}", self.m, self.n, self.k)
    }
}

fn c(size: i64, in_c: i64, out_c: i64, kernel: i64, stride: i64) -> Conv2dWorkload {
    Conv2dWorkload {
        batch: 1,
        size,
        in_c,
        out_c,
        kernel,
        stride,
        pad: kernel / 2,
    }
}

fn d(size: i64, channels: i64, kernel: i64, stride: i64) -> DepthwiseConv2dWorkload {
    DepthwiseConv2dWorkload {
        batch: 1,
        size,
        channels,
        kernel,
        stride,
        pad: kernel / 2,
    }
}

/// Table 2 (top): all conv2d operators in ResNet-18, C1..C12.
pub fn resnet18_convs() -> Vec<Conv2dWorkload> {
    vec![
        c(224, 3, 64, 7, 2),   // C1
        c(56, 64, 64, 3, 1),   // C2
        c(56, 64, 64, 1, 1),   // C3
        c(56, 64, 128, 3, 2),  // C4
        c(56, 64, 128, 1, 2),  // C5
        c(28, 128, 128, 3, 1), // C6
        c(28, 128, 256, 3, 2), // C7
        c(28, 128, 256, 1, 2), // C8
        c(14, 256, 256, 3, 1), // C9
        c(14, 256, 512, 3, 2), // C10
        c(14, 256, 512, 1, 2), // C11
        c(7, 512, 512, 3, 1),  // C12
    ]
}

/// Table 2 (bottom): all depthwise conv2d operators in MobileNet, D1..D9.
pub fn mobilenet_dwconvs() -> Vec<DepthwiseConv2dWorkload> {
    vec![
        d(112, 32, 3, 1), // D1
        d(112, 64, 3, 2), // D2
        d(56, 128, 3, 1), // D3
        d(56, 128, 3, 2), // D4
        d(28, 256, 3, 1), // D5
        d(28, 256, 3, 2), // D6
        d(14, 512, 3, 1), // D7
        d(14, 512, 3, 2), // D8
        d(7, 1024, 3, 1), // D9
    ]
}

/// The unconventional DQN convolutions called out in §6.1 (4x4 stride 2
/// plus the 8x8 stride 4 input layer).
pub fn dqn_convs() -> Vec<Conv2dWorkload> {
    vec![
        Conv2dWorkload {
            batch: 1,
            size: 84,
            in_c: 4,
            out_c: 32,
            kernel: 8,
            stride: 4,
            pad: 0,
        },
        Conv2dWorkload {
            batch: 1,
            size: 20,
            in_c: 32,
            out_c: 64,
            kernel: 4,
            stride: 2,
            pad: 0,
        },
        Conv2dWorkload {
            batch: 1,
            size: 9,
            in_c: 64,
            out_c: 64,
            kernel: 3,
            stride: 1,
            pad: 0,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_has_paper_counts() {
        assert_eq!(resnet18_convs().len(), 12);
        assert_eq!(mobilenet_dwconvs().len(), 9);
    }

    #[test]
    fn c1_matches_paper_row() {
        let c1 = resnet18_convs()[0];
        assert_eq!(
            (c1.size, c1.in_c, c1.out_c, c1.kernel, c1.stride),
            (224, 3, 64, 7, 2)
        );
        // SAME padding halves spatial size under stride 2.
        assert_eq!(c1.out_size(), 112);
    }

    #[test]
    fn d9_matches_paper_row() {
        let d9 = mobilenet_dwconvs()[8];
        assert_eq!(
            (d9.size, d9.channels, d9.kernel, d9.stride),
            (7, 1024, 3, 1)
        );
        assert_eq!(d9.out_size(), 7);
    }

    #[test]
    fn dqn_conv_is_unconventional() {
        let w = dqn_convs()[1];
        assert_eq!((w.kernel, w.stride), (4, 2));
        assert_eq!(w.out_size(), 9);
    }

    #[test]
    fn flop_counts_positive() {
        for w in resnet18_convs() {
            assert!(w.flops() > 0.0);
        }
        for w in mobilenet_dwconvs() {
            assert!(w.flops() > 0.0);
        }
    }
}
