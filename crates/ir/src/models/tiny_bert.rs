//! A two-block transformer encoder with a symbolic sequence length.
//!
//! The topology is a miniature BERT encoder stack (hidden 128, FFN 256):
//! per block a q/k/v projection triple, the raw
//! `Bmm(transpose) → Softmax → Bmm` scaled-dot-product pattern (fused
//! into one [`Op::Attention`](crate::Op::Attention) node by
//! [`transform::normalize`](crate::transform::normalize)), an output
//! projection, and a GELU feed-forward pair, each sub-block closed by a
//! residual add and layer norm.
//!
//! The input is `[seq, 128]` with `seq` symbolic: the graph only becomes
//! compilable after the session binds a sequence length
//! (`CompileOptions::with_seq_len` / `--seq-len`).

use crate::{Activation, Graph, GraphBuilder, NodeId};

/// Hidden width of the encoder.
const HIDDEN: usize = 128;
/// Feed-forward inner width.
const FFN: usize = 256;
/// Encoder block count.
const BLOCKS: usize = 2;

/// Builds the `tiny_bert` encoder stack.
pub fn tiny_bert() -> Graph {
    let mut b = GraphBuilder::new("tiny_bert");
    let mut t = b.input_seq("tokens", HIDDEN);
    for i in 0..BLOCKS {
        t = encoder_block(&mut b, t, i);
    }
    b.finish().expect("tiny_bert topology is valid")
}

fn encoder_block(b: &mut GraphBuilder, t: NodeId, i: usize) -> NodeId {
    let n = |stem: &str| format!("b{i}_{stem}");
    let e = "tiny_bert topology is valid";
    let q = b.matmul(n("q"), t, HIDDEN).expect(e);
    let k = b.matmul(n("k"), t, HIDDEN).expect(e);
    let v = b.matmul(n("v"), t, HIDDEN).expect(e);
    let scores = b.bmm(n("scores"), q, k, true, true).expect(e);
    let probs = b.softmax(n("probs"), scores).expect(e);
    let ctx = b.bmm(n("ctx"), probs, v, false, false).expect(e);
    let proj = b.matmul(n("proj"), ctx, HIDDEN).expect(e);
    let res1 = b.eltwise_add(n("res1"), proj, t).expect(e);
    let ln1 = b.layer_norm(n("ln1"), res1).expect(e);
    let ff1 = b.matmul(n("ff1"), ln1, FFN).expect(e);
    let act = b.activation(n("gelu"), ff1, Activation::Gelu).expect(e);
    let ff2 = b.matmul(n("ff2"), act, HIDDEN).expect(e);
    let res2 = b.eltwise_add(n("res2"), ff2, ln1).expect(e);
    b.layer_norm(n("ln2"), res2).expect(e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::{bind_seq_len, normalize};
    use crate::{Op, Shape};

    #[test]
    fn tiny_bert_builds_symbolic() {
        let g = tiny_bert();
        g.validate().unwrap();
        assert!(g.has_symbolic_dims());
        // 1 input + 14 nodes per block.
        assert_eq!(g.node_count(), 1 + 14 * BLOCKS);
        // 6 weight-stationary matmuls per block.
        assert_eq!(g.mvm_nodes().len(), 6 * BLOCKS);
    }

    #[test]
    fn normalize_fuses_both_attention_blocks() {
        let g = bind_seq_len(&tiny_bert(), 64).unwrap();
        let n = normalize(&g).unwrap();
        let attention = n
            .nodes()
            .iter()
            .filter(|nd| matches!(nd.op, Op::Attention(_)))
            .count();
        assert_eq!(attention, BLOCKS);
        assert!(!n.nodes().iter().any(|nd| matches!(nd.op, Op::Bmm(_))));
        assert!(!n.nodes().iter().any(|nd| matches!(nd.op, Op::Softmax)));
    }

    #[test]
    fn bound_output_shape_tracks_seq_len() {
        for seq in [16usize, 64] {
            let g = bind_seq_len(&tiny_bert(), seq).unwrap();
            let out: Vec<_> = g.outputs().collect();
            assert_eq!(out.len(), 1);
            assert_eq!(g.node(out[0]).output_shape, Shape::new([seq, HIDDEN]));
        }
    }
}
