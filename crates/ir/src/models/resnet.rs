//! ResNet family (He et al., 2016) — topologically complex benchmarks
//! with element-wise shortcut joins. `resnet18` is the paper benchmark;
//! `resnet34` (deeper basic blocks) and `resnet50` (bottleneck blocks)
//! exercise the compiler on deeper shortcut pipelines.

use crate::{Graph, GraphBuilder, NodeId};

/// Builds ResNet-18 with 1000 output classes.
///
/// Batch-norm nodes are explicit, matching what an ONNX export contains;
/// fold them with [`transform::normalize`](crate::transform::normalize)
/// before compilation.
pub fn resnet18() -> Graph {
    resnet_basic("resnet18", [2, 2, 2, 2])
}

/// Builds ResNet-34 (basic blocks, [3, 4, 6, 3]).
pub(crate) fn resnet34() -> Graph {
    resnet_basic("resnet34", [3, 4, 6, 3])
}

fn resnet_basic(name: &str, blocks: [usize; 4]) -> Graph {
    let mut b = GraphBuilder::new(name);
    let mut cur = stem(&mut b);

    let stages: [(usize, usize); 4] = [(64, 1), (128, 2), (256, 2), (512, 2)];
    for (si, (ch, first_stride)) in stages.into_iter().enumerate() {
        for blk in 0..blocks[si] {
            let stride = if blk == 0 { first_stride } else { 1 };
            cur = basic_block(&mut b, &format!("layer{}_{}", si + 1, blk), cur, ch, stride);
        }
    }

    head(&mut b, cur);
    b.finish().expect("resnet topology is a valid DAG")
}

/// Builds ResNet-50 (bottleneck blocks, [3, 4, 6, 3], expansion 4).
pub(crate) fn resnet50() -> Graph {
    let mut b = GraphBuilder::new("resnet50");
    let mut cur = stem(&mut b);

    let stages: [(usize, usize); 4] = [(64, 1), (128, 2), (256, 2), (512, 2)];
    let blocks = [3usize, 4, 6, 3];
    for (si, (ch, first_stride)) in stages.into_iter().enumerate() {
        for blk in 0..blocks[si] {
            let stride = if blk == 0 { first_stride } else { 1 };
            cur = bottleneck_block(&mut b, &format!("layer{}_{}", si + 1, blk), cur, ch, stride);
        }
    }

    head(&mut b, cur);
    b.finish().expect("resnet50 topology is a valid DAG")
}

/// Stem: 7x7/2 conv, BN, ReLU, 3x3/2 max pool.
fn stem(b: &mut GraphBuilder) -> NodeId {
    let x = b.input("input", [3, 224, 224]);
    let c1 = b
        .conv2d("conv1", x, 64, (7, 7), (2, 2), (3, 3))
        .expect("stem conv");
    let bn1 = b.batch_norm("bn1", c1).expect("bn1");
    let r1 = b.relu("relu1", bn1).expect("relu1");
    b.max_pool("maxpool", r1, (3, 3), (2, 2), (1, 1))
        .expect("stem pool")
}

/// Classifier head: GAP → flatten → 1000-way FC.
fn head(b: &mut GraphBuilder, cur: NodeId) {
    let gap = b.global_avg_pool("avgpool", cur).expect("gap");
    let flat = b.flatten("flatten", gap).expect("flatten");
    let _fc = b.linear("fc", flat, 1000).expect("fc");
}

/// The two-convolution residual block with identity or projection
/// shortcut.
fn basic_block(
    b: &mut GraphBuilder,
    name: &str,
    input: NodeId,
    out_ch: usize,
    stride: usize,
) -> NodeId {
    let c1 = b
        .conv2d(
            format!("{name}_conv1"),
            input,
            out_ch,
            (3, 3),
            (stride, stride),
            (1, 1),
        )
        .expect("block conv1");
    let bn1 = b.batch_norm(format!("{name}_bn1"), c1).expect("bn1");
    let r1 = b.relu(format!("{name}_relu1"), bn1).expect("relu1");
    let c2 = b
        .conv2d(format!("{name}_conv2"), r1, out_ch, (3, 3), (1, 1), (1, 1))
        .expect("block conv2");
    let bn2 = b.batch_norm(format!("{name}_bn2"), c2).expect("bn2");

    let shortcut = if stride != 1 || b.shape(input).channels() != out_ch {
        // Projection shortcut: 1x1 conv with the block's stride.
        let ds = b
            .conv2d(
                format!("{name}_downsample"),
                input,
                out_ch,
                (1, 1),
                (stride, stride),
                (0, 0),
            )
            .expect("downsample conv");
        b.batch_norm(format!("{name}_downsample_bn"), ds)
            .expect("downsample bn")
    } else {
        input
    };

    let add = b
        .eltwise_add(format!("{name}_add"), bn2, shortcut)
        .expect("shapes match by construction");
    b.relu(format!("{name}_relu2"), add).expect("relu2")
}

/// The 1x1 → 3x3 → 1x1 bottleneck with expansion 4 (resnet50-style).
fn bottleneck_block(
    b: &mut GraphBuilder,
    name: &str,
    input: NodeId,
    mid_ch: usize,
    stride: usize,
) -> NodeId {
    let out_ch = mid_ch * 4;
    let c1 = b
        .conv2d(
            format!("{name}_conv1"),
            input,
            mid_ch,
            (1, 1),
            (1, 1),
            (0, 0),
        )
        .expect("bottleneck conv1");
    let bn1 = b.batch_norm(format!("{name}_bn1"), c1).expect("bn1");
    let r1 = b.relu(format!("{name}_relu1"), bn1).expect("relu1");
    let c2 = b
        .conv2d(
            format!("{name}_conv2"),
            r1,
            mid_ch,
            (3, 3),
            (stride, stride),
            (1, 1),
        )
        .expect("bottleneck conv2");
    let bn2 = b.batch_norm(format!("{name}_bn2"), c2).expect("bn2");
    let r2 = b.relu(format!("{name}_relu2"), bn2).expect("relu2");
    let c3 = b
        .conv2d(format!("{name}_conv3"), r2, out_ch, (1, 1), (1, 1), (0, 0))
        .expect("bottleneck conv3");
    let bn3 = b.batch_norm(format!("{name}_bn3"), c3).expect("bn3");

    let shortcut = if stride != 1 || b.shape(input).channels() != out_ch {
        let ds = b
            .conv2d(
                format!("{name}_downsample"),
                input,
                out_ch,
                (1, 1),
                (stride, stride),
                (0, 0),
            )
            .expect("downsample conv");
        b.batch_norm(format!("{name}_downsample_bn"), ds)
            .expect("downsample bn")
    } else {
        input
    };

    let add = b
        .eltwise_add(format!("{name}_add"), bn3, shortcut)
        .expect("shapes match by construction");
    b.relu(format!("{name}_relu3"), add).expect("relu3")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Op, Shape};

    #[test]
    fn resnet18_has_20_convs() {
        // 1 stem + 16 block convs + 3 projection shortcuts.
        let g = resnet18();
        let convs = g
            .nodes()
            .iter()
            .filter(|n| matches!(n.op, Op::Conv2d(_)))
            .count();
        assert_eq!(convs, 20);
    }

    #[test]
    fn resnet18_has_8_shortcut_adds() {
        let g = resnet18();
        let adds = g
            .nodes()
            .iter()
            .filter(|n| matches!(n.op, Op::Eltwise(_)))
            .count();
        assert_eq!(adds, 8);
    }

    #[test]
    fn stage_extents_follow_the_paper_network() {
        let g = resnet18();
        assert_eq!(
            g.node_by_name("layer1_1_relu2").unwrap().output_shape,
            Shape::chw(64, 56, 56)
        );
        assert_eq!(
            g.node_by_name("layer4_1_relu2").unwrap().output_shape,
            Shape::chw(512, 7, 7)
        );
    }

    #[test]
    fn projection_blocks_exist_only_on_stage_transitions() {
        let g = resnet18();
        let downsamples = g
            .nodes()
            .iter()
            .filter(|n| n.name.contains("downsample") && matches!(n.op, Op::Conv2d(_)))
            .count();
        assert_eq!(downsamples, 3);
    }

    #[test]
    fn resnet34_has_36_convs() {
        // 1 stem + (3+4+6+3)*2 block convs + 3 projections.
        let g = resnet34();
        let convs = g
            .nodes()
            .iter()
            .filter(|n| matches!(n.op, Op::Conv2d(_)))
            .count();
        assert_eq!(convs, 36);
    }

    #[test]
    fn resnet50_has_53_convs_and_canonical_params() {
        // 1 stem + (3+4+6+3)*3 bottleneck convs + 4 projections.
        let g = resnet50();
        let convs = g
            .nodes()
            .iter()
            .filter(|n| matches!(n.op, Op::Conv2d(_)))
            .count();
        assert_eq!(convs, 53);
        // ~25.6M params published; weights only (no BN affine):
        let s = crate::GraphStats::of(&g);
        assert!(
            (23_000_000..27_000_000).contains(&s.params),
            "{} params",
            s.params
        );
        // Bottleneck output width: 2048 channels at 7x7.
        assert_eq!(
            g.node_by_name("layer4_2_relu3").unwrap().output_shape,
            crate::Shape::chw(2048, 7, 7)
        );
    }

    #[test]
    fn resnet50_first_stage_projects_despite_stride_one() {
        // layer1_0: stride 1 but 64 -> 256 channels forces a projection.
        let g = resnet50();
        assert!(g.node_by_name("layer1_0_downsample").is_some());
        assert!(g.node_by_name("layer1_1_downsample").is_none());
    }
}
