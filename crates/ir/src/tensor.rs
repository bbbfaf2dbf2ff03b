use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt;

/// A single tensor dimension: either a fixed extent or the symbolic
/// sequence length `seq`.
///
/// Transformer graphs are traced with an unknown sequence length (ONNX
/// `dim_param`); the IR carries it symbolically until the compile session
/// binds it to a concrete value via `CompileOptions::with_seq_len` /
/// `--seq-len`. CNN graphs never contain a symbolic dimension, and every
/// shape that reaches partitioning/scheduling is fully fixed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dim {
    /// A concrete extent (always positive).
    Fixed(usize),
    /// The symbolic sequence length, bound at compile time.
    Seq,
}

impl Dim {
    /// The concrete extent, or `None` while still symbolic.
    pub(crate) fn fixed(self) -> Option<usize> {
        match self {
            Dim::Fixed(n) => Some(n),
            Dim::Seq => None,
        }
    }
}

impl fmt::Display for Dim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dim::Fixed(n) => write!(f, "{n}"),
            Dim::Seq => f.write_str("seq"),
        }
    }
}

// A fixed dimension serializes exactly like the plain `usize` it replaced
// (an integer), so graphs saved before symbolic dims existed load
// unchanged and fully-bound graphs round-trip byte-identically.
impl Serialize for Dim {
    fn to_value(&self) -> Value {
        match self {
            Dim::Fixed(n) => Value::Int(*n as i128),
            Dim::Seq => Value::Str("seq".to_string()),
        }
    }
}

impl Deserialize for Dim {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Int(n) if *n > 0 && *n <= usize::MAX as i128 => Ok(Dim::Fixed(*n as usize)),
            Value::Str(s) if s == "seq" => Ok(Dim::Seq),
            other => Err(DeError::new(format!(
                "dimension must be a positive integer or \"seq\", found {}",
                other.kind()
            ))),
        }
    }
}

/// The shape of a feature tensor flowing along a graph edge.
///
/// PIMCOMP compiles single-sample inference (the pipeline parallelism the
/// paper studies is *across* inferences, not across a batch dimension), so
/// shapes are stored batch-free:
///
/// * `[C, H, W]` for convolutional feature maps,
/// * `[F]` for flattened / fully-connected features,
/// * `[seq, F]` (or any rank-N form) for transformer token streams, where
///   `seq` may stay symbolic until the session binds it.
///
/// # Example
///
/// ```
/// use pimcomp_ir::Shape;
///
/// let s = Shape::chw(64, 56, 56);
/// assert_eq!(s.channels(), 64);
/// assert_eq!(s.numel(), 64 * 56 * 56);
///
/// let t = Shape::seq_features(128);
/// assert!(t.is_symbolic());
/// assert_eq!(t.bind_seq(64).numel(), 64 * 128);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Shape(Vec<Dim>);

impl Shape {
    /// Creates a fully fixed shape from raw dimensions.
    ///
    /// # Panics
    ///
    /// Panics if `dims` is empty or any dimension is zero; a zero-sized
    /// tensor is never meaningful in this IR.
    pub fn new(dims: impl Into<Vec<usize>>) -> Self {
        let dims = dims.into();
        assert!(!dims.is_empty(), "shape must have at least one dimension");
        assert!(
            dims.iter().all(|&d| d > 0),
            "shape dimensions must be positive, got {dims:?}"
        );
        Shape(dims.into_iter().map(Dim::Fixed).collect())
    }

    /// Creates a shape from possibly-symbolic dimensions.
    ///
    /// # Panics
    ///
    /// Panics if `dims` is empty or any fixed dimension is zero.
    pub fn from_dims(dims: impl Into<Vec<Dim>>) -> Self {
        let dims = dims.into();
        assert!(!dims.is_empty(), "shape must have at least one dimension");
        assert!(
            dims.iter().all(|d| !matches!(d, Dim::Fixed(0))),
            "shape dimensions must be positive"
        );
        Shape(dims)
    }

    /// Creates a `[C, H, W]` feature-map shape.
    pub fn chw(channels: usize, height: usize, width: usize) -> Self {
        Shape::new([channels, height, width])
    }

    /// Creates a flat `[F]` feature shape.
    pub fn flat(features: usize) -> Self {
        Shape::new([features])
    }

    /// Creates a `[seq, F]` token-stream shape with a symbolic sequence
    /// length (the usual input shape of a transformer encoder).
    pub fn seq_features(features: usize) -> Self {
        assert!(features > 0, "shape dimensions must be positive");
        Shape(vec![Dim::Seq, Dim::Fixed(features)])
    }

    /// The raw dimensions.
    pub fn dims(&self) -> &[Dim] {
        &self.0
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// `true` while any dimension is still the symbolic sequence length.
    pub fn is_symbolic(&self) -> bool {
        self.0.iter().any(|d| matches!(d, Dim::Seq))
    }

    /// Returns a copy with every symbolic dimension bound to `len`.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn bind_seq(&self, len: usize) -> Shape {
        assert!(len > 0, "sequence length must be positive");
        Shape(
            self.0
                .iter()
                .map(|d| match d {
                    Dim::Seq => Dim::Fixed(len),
                    fixed => *fixed,
                })
                .collect(),
        )
    }

    /// Total element count, or `None` while a dimension is symbolic.
    pub fn try_numel(&self) -> Option<usize> {
        self.0
            .iter()
            .try_fold(1usize, |acc, d| d.fixed().and_then(|n| acc.checked_mul(n)))
    }

    /// Total element count.
    ///
    /// # Panics
    ///
    /// Panics on a symbolic shape; the compile session binds the sequence
    /// length (and errors otherwise) before any element count is taken.
    pub fn numel(&self) -> usize {
        self.try_numel()
            .unwrap_or_else(|| panic!("shape {self} is symbolic; bind the sequence length first"))
    }

    /// `true` when this is a fully fixed `[C, H, W]` feature map.
    pub(crate) fn is_chw(&self) -> bool {
        self.0.len() == 3 && !self.is_symbolic()
    }

    fn fixed_at(&self, i: usize, role: &str) -> usize {
        match self.0[i] {
            Dim::Fixed(n) => n,
            Dim::Seq => {
                panic!("shape {self} has a symbolic {role}; bind the sequence length first")
            }
        }
    }

    /// Feature width of the tensor.
    ///
    /// For `[C, H, W]` this is `C`; for every other rank it is the
    /// innermost (last) dimension — for a flat `[F]` the whole vector is
    /// treated as `F` channels of a 1×1 feature map (how fully connected
    /// layers are viewed as special convolutions in the paper's
    /// node-partitioning stage, Section IV-B), and for a `[seq, F]` token
    /// stream it is the per-token hidden width `F`.
    pub fn channels(&self) -> usize {
        if self.is_chw() {
            self.fixed_at(0, "channel count")
        } else {
            self.fixed_at(self.0.len() - 1, "feature width")
        }
    }

    /// Row count streamed through the operator.
    ///
    /// `H` for `[C, H, W]`, 1 for flat shapes, and the product of all
    /// leading (non-feature) dimensions otherwise — `seq` for a bound
    /// `[seq, F]` token stream.
    pub fn height(&self) -> usize {
        if self.is_chw() {
            self.fixed_at(1, "height")
        } else if self.0.len() == 1 {
            1
        } else {
            self.0[..self.0.len() - 1]
                .iter()
                .enumerate()
                .map(|(i, _)| self.fixed_at(i, "leading extent"))
                .product()
        }
    }

    /// Spatial width (`W` for `[C, H, W]`, 1 otherwise).
    pub fn width(&self) -> usize {
        if self.is_chw() {
            self.fixed_at(2, "width")
        } else {
            1
        }
    }
}

impl fmt::Display for Shape {
    /// Renders as `CxHxW` (e.g. `64x56x56`), symbolic dims as `seq`
    /// (e.g. `seqx128`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for d in &self.0 {
            if !first {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chw_accessors() {
        let s = Shape::chw(3, 224, 224);
        assert_eq!(s.channels(), 3);
        assert_eq!(s.height(), 224);
        assert_eq!(s.width(), 224);
        assert_eq!(s.numel(), 3 * 224 * 224);
        assert!(s.is_chw());
        assert!(!s.is_symbolic());
    }

    #[test]
    fn flat_accessors() {
        let s = Shape::flat(4096);
        assert_eq!(s.channels(), 4096);
        assert_eq!(s.height(), 1);
        assert_eq!(s.width(), 1);
    }

    #[test]
    fn seq_features_accessors() {
        let s = Shape::seq_features(128);
        assert!(s.is_symbolic());
        assert!(!s.is_chw());
        assert_eq!(s.rank(), 2);
        assert_eq!(s.try_numel(), None);

        let bound = s.bind_seq(64);
        assert!(!bound.is_symbolic());
        assert_eq!(bound.channels(), 128);
        assert_eq!(bound.height(), 64);
        assert_eq!(bound.width(), 1);
        assert_eq!(bound.numel(), 64 * 128);
    }

    #[test]
    fn bind_seq_leaves_fixed_dims_alone() {
        let s = Shape::chw(64, 7, 7);
        assert_eq!(s.bind_seq(99), s);
    }

    #[test]
    fn rank_two_fixed_accessors() {
        // A bound token stream: rows stream through, features are the
        // innermost dim.
        let s = Shape::new([64usize, 128]);
        assert_eq!(s.height(), 64);
        assert_eq!(s.channels(), 128);
        assert_eq!(s.width(), 1);
        assert!(!s.is_chw());
    }

    #[test]
    fn display_renders_dims() {
        assert_eq!(Shape::chw(64, 7, 7).to_string(), "64x7x7");
        assert_eq!(Shape::flat(10).to_string(), "10");
        assert_eq!(Shape::seq_features(128).to_string(), "seqx128");
    }

    #[test]
    fn serde_round_trip_fixed_and_symbolic() {
        let fixed = Shape::chw(64, 7, 7);
        let v = fixed.to_value();
        assert_eq!(Shape::from_value(&v).unwrap(), fixed);

        let sym = Shape::seq_features(128);
        let v = sym.to_value();
        assert_eq!(Shape::from_value(&v).unwrap(), sym);

        // Fixed dims stay plain integers on the wire (backward compat).
        let json = serde_json::to_string(&fixed).unwrap();
        assert_eq!(json, "[64,7,7]");
        let json = serde_json::to_string(&sym).unwrap();
        assert_eq!(json, "[\"seq\",128]");
    }

    #[test]
    fn dim_deserialize_rejects_garbage() {
        assert!(Dim::from_value(&Value::Int(0)).is_err());
        assert!(Dim::from_value(&Value::Int(-3)).is_err());
        assert!(Dim::from_value(&Value::Str("sequence".into())).is_err());
        assert!(Dim::from_value(&Value::Bool(true)).is_err());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dim_rejected() {
        let _ = Shape::new([1, 0, 3]);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_rejected() {
        let _ = Shape::new(Vec::new());
    }

    #[test]
    #[should_panic(expected = "symbolic")]
    fn numel_on_symbolic_panics() {
        let _ = Shape::seq_features(128).numel();
    }
}
