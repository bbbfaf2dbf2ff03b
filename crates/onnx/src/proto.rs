//! The ONNX message subset (from `onnx.proto3`) that DNN inference
//! graphs use, with hand-rolled decode/encode over the wire primitives.

use crate::wire::{Reader, WireType, Writer};
use crate::OnnxError;

/// `onnx.AttributeProto.AttributeType` values we understand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AttributeType {
    /// Unset/unknown.
    #[default]
    Undefined,
    /// Single float.
    Float,
    /// Single int64.
    Int,
    /// Byte string.
    String,
    /// Repeated float.
    Floats,
    /// Repeated int64.
    Ints,
}

impl AttributeType {
    fn from_i64(v: i64) -> Self {
        match v {
            1 => AttributeType::Float,
            2 => AttributeType::Int,
            3 => AttributeType::String,
            6 => AttributeType::Floats,
            7 => AttributeType::Ints,
            _ => AttributeType::Undefined,
        }
    }

    fn to_i64(self) -> i64 {
        match self {
            AttributeType::Undefined => 0,
            AttributeType::Float => 1,
            AttributeType::Int => 2,
            AttributeType::String => 3,
            AttributeType::Floats => 6,
            AttributeType::Ints => 7,
        }
    }
}

/// `onnx.AttributeProto`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AttributeProto {
    /// Attribute name (`kernel_shape`, `strides`, …).
    pub name: String,
    /// Declared type.
    pub r#type: AttributeType,
    /// FLOAT payload.
    pub f: f32,
    /// INT payload.
    pub i: i64,
    /// STRING payload.
    pub s: Vec<u8>,
    /// FLOATS payload.
    pub floats: Vec<f32>,
    /// INTS payload.
    pub ints: Vec<i64>,
}

impl AttributeProto {
    /// Convenience constructor for an INT attribute.
    pub(crate) fn int(name: &str, v: i64) -> Self {
        AttributeProto {
            name: name.into(),
            r#type: AttributeType::Int,
            i: v,
            ..Default::default()
        }
    }

    /// Convenience constructor for an INTS attribute.
    pub(crate) fn ints(name: &str, v: Vec<i64>) -> Self {
        AttributeProto {
            name: name.into(),
            r#type: AttributeType::Ints,
            ints: v,
            ..Default::default()
        }
    }

    /// Convenience constructor for a FLOAT attribute.
    pub(crate) fn float(name: &str, v: f32) -> Self {
        AttributeProto {
            name: name.into(),
            r#type: AttributeType::Float,
            f: v,
            ..Default::default()
        }
    }

    fn decode(buf: &[u8]) -> Result<Self, OnnxError> {
        let mut r = Reader::new(buf);
        let mut a = AttributeProto::default();
        while !r.is_at_end() {
            let (field, wire) = r.key()?;
            match field {
                1 => a.name = r.string()?,
                2 => a.f = r.float()?,
                3 => a.i = r.int64()?,
                4 => a.s = r.bytes()?.to_vec(),
                7 => match wire {
                    // Packed or unpacked repeated float.
                    WireType::LengthDelimited => {
                        let bytes = r.bytes()?;
                        let mut rr = Reader::new(bytes);
                        while !rr.is_at_end() {
                            a.floats.push(rr.float()?);
                        }
                    }
                    _ => a.floats.push(r.float()?),
                },
                8 => match wire {
                    WireType::LengthDelimited => {
                        let bytes = r.bytes()?;
                        let mut rr = Reader::new(bytes);
                        while !rr.is_at_end() {
                            a.ints.push(rr.int64()?);
                        }
                    }
                    _ => a.ints.push(r.int64()?),
                },
                20 => a.r#type = AttributeType::from_i64(r.int64()?),
                _ => r.skip(wire)?,
            }
        }
        Ok(a)
    }

    fn encode(&self) -> Writer {
        let mut w = Writer::new();
        w.field_string(1, &self.name);
        match self.r#type {
            AttributeType::Float => {
                // Emit even when 0.0 so the value is unambiguous.
                w.field_float_always(2, self.f);
            }
            AttributeType::Int => {
                w.field_int64_always(3, self.i);
            }
            AttributeType::String => {
                w.field_bytes(4, &self.s);
            }
            AttributeType::Floats => {
                for &v in &self.floats {
                    w.field_float_always(7, v);
                }
            }
            AttributeType::Ints => {
                for &v in &self.ints {
                    w.field_int64_always(8, v);
                }
            }
            AttributeType::Undefined => {}
        }
        w.field_varint(20, self.r#type.to_i64() as u64);
        w
    }
}

/// `onnx.TensorProto` (dims + name are all the importer needs; weight
/// payloads are irrelevant to compilation and stay empty on export).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TensorProto {
    /// Tensor dimensions.
    pub dims: Vec<i64>,
    /// Element type (1 = float32).
    pub data_type: i64,
    /// Tensor name (matches a node input).
    pub name: String,
    /// Raw little-endian payload (may be empty).
    pub raw_data: Vec<u8>,
}

impl TensorProto {
    fn decode(buf: &[u8]) -> Result<Self, OnnxError> {
        let mut r = Reader::new(buf);
        let mut t = TensorProto::default();
        while !r.is_at_end() {
            let (field, wire) = r.key()?;
            match field {
                1 => match wire {
                    WireType::LengthDelimited => {
                        let bytes = r.bytes()?;
                        let mut rr = Reader::new(bytes);
                        while !rr.is_at_end() {
                            t.dims.push(rr.int64()?);
                        }
                    }
                    _ => t.dims.push(r.int64()?),
                },
                2 => t.data_type = r.int64()?,
                8 => t.name = r.string()?,
                9 => t.raw_data = r.bytes()?.to_vec(),
                _ => r.skip(wire)?,
            }
        }
        Ok(t)
    }

    fn encode(&self) -> Writer {
        let mut w = Writer::new();
        for &d in &self.dims {
            w.field_int64_always(1, d);
        }
        w.field_varint(2, self.data_type as u64);
        w.field_string(8, &self.name);
        if !self.raw_data.is_empty() {
            w.field_bytes(9, &self.raw_data);
        }
        w
    }
}

/// `onnx.TensorShapeProto` — dimensions with either a value or a
/// symbolic parameter.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TensorShapeProto {
    /// Dimension values; `None` for symbolic dims (e.g. batch "N").
    pub dims: Vec<Option<i64>>,
}

impl TensorShapeProto {
    fn decode(buf: &[u8]) -> Result<Self, OnnxError> {
        let mut r = Reader::new(buf);
        let mut s = TensorShapeProto::default();
        while !r.is_at_end() {
            let (field, wire) = r.key()?;
            match field {
                1 => {
                    let bytes = r.bytes()?;
                    let mut rr = Reader::new(bytes);
                    let mut value: Option<i64> = None;
                    while !rr.is_at_end() {
                        let (f2, w2) = rr.key()?;
                        match f2 {
                            1 => value = Some(rr.int64()?),
                            _ => rr.skip(w2)?,
                        }
                    }
                    s.dims.push(value);
                }
                _ => r.skip(wire)?,
            }
        }
        Ok(s)
    }

    fn encode(&self) -> Writer {
        let mut w = Writer::new();
        for d in &self.dims {
            let mut dim = Writer::new();
            match d {
                Some(v) => {
                    dim.field_int64_always(1, *v);
                }
                None => {
                    dim.field_string(2, "N");
                }
            }
            w.field_message(1, &dim);
        }
        w
    }
}

/// `onnx.ValueInfoProto` with the tensor type flattened in.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ValueInfoProto {
    /// Value name.
    pub name: String,
    /// Element type (1 = float32).
    pub elem_type: i64,
    /// Shape.
    pub shape: TensorShapeProto,
}

impl ValueInfoProto {
    fn decode(buf: &[u8]) -> Result<Self, OnnxError> {
        let mut r = Reader::new(buf);
        let mut v = ValueInfoProto::default();
        while !r.is_at_end() {
            let (field, wire) = r.key()?;
            match field {
                1 => v.name = r.string()?,
                2 => {
                    // TypeProto -> tensor_type (field 1) -> {elem_type 1, shape 2}
                    let type_bytes = r.bytes()?;
                    let mut tr = Reader::new(type_bytes);
                    while !tr.is_at_end() {
                        let (tf, tw) = tr.key()?;
                        if tf == 1 {
                            let tt = tr.bytes()?;
                            let mut ttr = Reader::new(tt);
                            while !ttr.is_at_end() {
                                let (ttf, ttw) = ttr.key()?;
                                match ttf {
                                    1 => v.elem_type = ttr.int64()?,
                                    2 => v.shape = TensorShapeProto::decode(ttr.bytes()?)?,
                                    _ => ttr.skip(ttw)?,
                                }
                            }
                        } else {
                            tr.skip(tw)?;
                        }
                    }
                }
                _ => r.skip(wire)?,
            }
        }
        Ok(v)
    }

    fn encode(&self) -> Writer {
        let mut w = Writer::new();
        w.field_string(1, &self.name);
        let mut tensor_type = Writer::new();
        tensor_type.field_varint(1, self.elem_type as u64);
        tensor_type.field_message(2, &self.shape.encode());
        let mut type_proto = Writer::new();
        type_proto.field_message(1, &tensor_type);
        w.field_message(2, &type_proto);
        w
    }
}

/// `onnx.NodeProto`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NodeProto {
    /// Input value names.
    pub input: Vec<String>,
    /// Output value names.
    pub output: Vec<String>,
    /// Node name.
    pub name: String,
    /// Operator (`Conv`, `Gemm`, `Relu`, …).
    pub op_type: String,
    /// Attributes.
    pub attribute: Vec<AttributeProto>,
}

impl NodeProto {
    /// Finds an attribute by name.
    pub(crate) fn attr(&self, name: &str) -> Option<&AttributeProto> {
        self.attribute.iter().find(|a| a.name == name)
    }

    /// INT attribute value with a default.
    pub(crate) fn attr_i(&self, name: &str, default: i64) -> i64 {
        self.attr(name).map_or(default, |a| a.i)
    }

    /// INTS attribute values (empty slice when missing).
    pub(crate) fn attr_ints(&self, name: &str) -> &[i64] {
        self.attr(name).map_or(&[], |a| a.ints.as_slice())
    }

    fn decode(buf: &[u8]) -> Result<Self, OnnxError> {
        let mut r = Reader::new(buf);
        let mut n = NodeProto::default();
        while !r.is_at_end() {
            let (field, wire) = r.key()?;
            match field {
                1 => n.input.push(r.string()?),
                2 => n.output.push(r.string()?),
                3 => n.name = r.string()?,
                4 => n.op_type = r.string()?,
                5 => n.attribute.push(AttributeProto::decode(r.bytes()?)?),
                _ => r.skip(wire)?,
            }
        }
        Ok(n)
    }

    fn encode(&self) -> Writer {
        let mut w = Writer::new();
        for i in &self.input {
            w.field_bytes(1, i.as_bytes());
        }
        for o in &self.output {
            w.field_bytes(2, o.as_bytes());
        }
        w.field_string(3, &self.name);
        w.field_string(4, &self.op_type);
        for a in &self.attribute {
            w.field_message(5, &a.encode());
        }
        w
    }
}

/// `onnx.GraphProto`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GraphProto {
    /// Nodes in topological order.
    pub node: Vec<NodeProto>,
    /// Graph name.
    pub name: String,
    /// Weight tensors (dims matter; payloads may be empty).
    pub initializer: Vec<TensorProto>,
    /// Graph inputs (activations; initializers may also be listed).
    pub input: Vec<ValueInfoProto>,
    /// Graph outputs.
    pub output: Vec<ValueInfoProto>,
}

impl GraphProto {
    fn decode(buf: &[u8]) -> Result<Self, OnnxError> {
        let mut r = Reader::new(buf);
        let mut g = GraphProto::default();
        while !r.is_at_end() {
            let (field, wire) = r.key()?;
            match field {
                1 => g.node.push(NodeProto::decode(r.bytes()?)?),
                2 => g.name = r.string()?,
                5 => g.initializer.push(TensorProto::decode(r.bytes()?)?),
                11 => g.input.push(ValueInfoProto::decode(r.bytes()?)?),
                12 => g.output.push(ValueInfoProto::decode(r.bytes()?)?),
                _ => r.skip(wire)?,
            }
        }
        Ok(g)
    }

    fn encode(&self) -> Writer {
        let mut w = Writer::new();
        for n in &self.node {
            w.field_message(1, &n.encode());
        }
        w.field_string(2, &self.name);
        for t in &self.initializer {
            w.field_message(5, &t.encode());
        }
        for i in &self.input {
            w.field_message(11, &i.encode());
        }
        for o in &self.output {
            w.field_message(12, &o.encode());
        }
        w
    }
}

/// `onnx.ModelProto` — the top-level ONNX file content.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ModelProto {
    /// ONNX IR version.
    pub ir_version: i64,
    /// Producer tool name.
    pub producer_name: String,
    /// Producer tool version.
    pub producer_version: String,
    /// The graph.
    pub graph: Option<GraphProto>,
    /// Opset version (default domain).
    pub opset_version: i64,
}

impl ModelProto {
    /// Decodes a serialized `.onnx` payload.
    ///
    /// # Errors
    ///
    /// [`OnnxError::Malformed`] on wire-format violations.
    pub fn decode(buf: &[u8]) -> Result<Self, OnnxError> {
        let mut r = Reader::new(buf);
        let mut m = ModelProto::default();
        while !r.is_at_end() {
            let (field, wire) = r.key()?;
            match field {
                1 => m.ir_version = r.int64()?,
                2 => m.producer_name = r.string()?,
                3 => m.producer_version = r.string()?,
                7 => m.graph = Some(GraphProto::decode(r.bytes()?)?),
                8 => {
                    // OperatorSetIdProto { domain=1, version=2 }
                    let bytes = r.bytes()?;
                    let mut rr = Reader::new(bytes);
                    while !rr.is_at_end() {
                        let (f2, w2) = rr.key()?;
                        match f2 {
                            2 => m.opset_version = rr.int64()?,
                            _ => rr.skip(w2)?,
                        }
                    }
                }
                _ => r.skip(wire)?,
            }
        }
        Ok(m)
    }

    /// Encodes to serialized `.onnx` bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.field_varint(1, self.ir_version as u64);
        w.field_string(2, &self.producer_name);
        w.field_string(3, &self.producer_version);
        if let Some(g) = &self.graph {
            w.field_message(7, &g.encode());
        }
        if self.opset_version != 0 {
            let mut opset = Writer::new();
            opset.field_int64_always(2, self.opset_version);
            w.field_message(8, &opset);
        }
        w.into_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_model() -> ModelProto {
        ModelProto {
            ir_version: 8,
            producer_name: "pimcomp".into(),
            producer_version: "0.1".into(),
            opset_version: 13,
            graph: Some(GraphProto {
                name: "g".into(),
                node: vec![NodeProto {
                    input: vec!["x".into(), "w".into()],
                    output: vec!["y".into()],
                    name: "conv1".into(),
                    op_type: "Conv".into(),
                    attribute: vec![
                        AttributeProto::ints("kernel_shape", vec![3, 3]),
                        AttributeProto::ints("pads", vec![1, 1, 1, 1]),
                        AttributeProto::ints("strides", vec![1, 1]),
                        AttributeProto::int("group", 1),
                    ],
                }],
                initializer: vec![TensorProto {
                    dims: vec![16, 3, 3, 3],
                    data_type: 1,
                    name: "w".into(),
                    raw_data: vec![],
                }],
                input: vec![ValueInfoProto {
                    name: "x".into(),
                    elem_type: 1,
                    shape: TensorShapeProto {
                        dims: vec![None, Some(3), Some(32), Some(32)],
                    },
                }],
                output: vec![ValueInfoProto {
                    name: "y".into(),
                    elem_type: 1,
                    shape: TensorShapeProto {
                        dims: vec![None, Some(16), Some(32), Some(32)],
                    },
                }],
            }),
        }
    }

    #[test]
    fn model_round_trip() {
        let m = sample_model();
        let bytes = m.encode();
        let m2 = ModelProto::decode(&bytes).unwrap();
        assert_eq!(m, m2);
    }

    #[test]
    fn attribute_accessors() {
        let m = sample_model();
        let node = &m.graph.unwrap().node[0];
        assert_eq!(node.attr_ints("kernel_shape"), &[3, 3]);
        assert_eq!(node.attr_i("group", 1), 1);
        assert_eq!(node.attr_i("missing", 7), 7);
    }

    #[test]
    fn unknown_fields_are_skipped() {
        let m = sample_model();
        let mut bytes = m.encode();
        // Append an unknown varint field (number 99).
        let mut w = Writer::new();
        w.field_varint(99, 1234);
        bytes.extend_from_slice(&w.into_bytes());
        let m2 = ModelProto::decode(&bytes).unwrap();
        assert_eq!(m2.producer_name, "pimcomp");
    }

    #[test]
    fn symbolic_batch_dim_survives() {
        let m = sample_model();
        let bytes = m.encode();
        let m2 = ModelProto::decode(&bytes).unwrap();
        let g = m2.graph.unwrap();
        assert_eq!(g.input[0].shape.dims[0], None);
        assert_eq!(g.input[0].shape.dims[1], Some(3));
    }
}
