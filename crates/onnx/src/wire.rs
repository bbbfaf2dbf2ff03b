//! Protobuf wire-format primitives (proto3 subset).
//!
//! ONNX models are protobuf messages; this module implements the wire
//! encoding from scratch — varints, length-delimited fields and the two
//! fixed widths — which is all the ONNX schema needs.

use crate::OnnxError;

/// Wire types of the protobuf encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WireType {
    /// Varint-encoded integer (wire type 0).
    Varint,
    /// Little-endian 64-bit (wire type 1).
    Fixed64,
    /// Length-delimited bytes (wire type 2).
    LengthDelimited,
    /// Little-endian 32-bit (wire type 5).
    Fixed32,
}

impl WireType {
    fn from_bits(bits: u64) -> Result<Self, OnnxError> {
        match bits {
            0 => Ok(WireType::Varint),
            1 => Ok(WireType::Fixed64),
            2 => Ok(WireType::LengthDelimited),
            5 => Ok(WireType::Fixed32),
            other => Err(OnnxError::Malformed {
                detail: format!("unsupported wire type {other}"),
            }),
        }
    }

    fn bits(self) -> u64 {
        match self {
            WireType::Varint => 0,
            WireType::Fixed64 => 1,
            WireType::LengthDelimited => 2,
            WireType::Fixed32 => 5,
        }
    }
}

/// A streaming reader over a protobuf-encoded buffer.
#[derive(Debug, Clone)]
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a buffer.
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// `true` when the buffer is exhausted.
    pub(crate) fn is_at_end(&self) -> bool {
        self.pos >= self.buf.len()
    }

    /// Reads a field key; returns `(field_number, wire_type)`.
    ///
    /// # Errors
    ///
    /// Fails on truncated input or an unsupported wire type.
    pub(crate) fn key(&mut self) -> Result<(u64, WireType), OnnxError> {
        let key = self.varint()?;
        Ok((key >> 3, WireType::from_bits(key & 0x7)?))
    }

    /// Reads a base-128 varint.
    ///
    /// # Errors
    ///
    /// Fails on truncation or a varint longer than 10 bytes.
    pub(crate) fn varint(&mut self) -> Result<u64, OnnxError> {
        let mut value: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.byte()?;
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(OnnxError::Malformed {
            detail: "varint exceeds 10 bytes".into(),
        })
    }

    /// Reads a varint as i64 (two's complement, as protobuf int64).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Reader::varint`].
    pub(crate) fn int64(&mut self) -> Result<i64, OnnxError> {
        Ok(self.varint()? as i64)
    }

    /// Reads a length-delimited byte slice.
    ///
    /// # Errors
    ///
    /// Fails when the declared length overruns the buffer.
    pub(crate) fn bytes(&mut self) -> Result<&'a [u8], OnnxError> {
        let len = self.varint()? as usize;
        if self.pos + len > self.buf.len() {
            return Err(OnnxError::Malformed {
                detail: format!(
                    "length-delimited field of {len} bytes overruns buffer ({} left)",
                    self.buf.len() - self.pos
                ),
            });
        }
        let slice = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(slice)
    }

    /// Reads a length-delimited UTF-8 string (lossy).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Reader::bytes`].
    pub(crate) fn string(&mut self) -> Result<String, OnnxError> {
        Ok(String::from_utf8_lossy(self.bytes()?).into_owned())
    }

    /// Reads a 32-bit float (fixed32).
    ///
    /// # Errors
    ///
    /// Fails on truncation.
    pub(crate) fn float(&mut self) -> Result<f32, OnnxError> {
        let mut le = [0u8; 4];
        for b in &mut le {
            *b = self.byte()?;
        }
        Ok(f32::from_le_bytes(le))
    }

    /// Skips a field of the given wire type.
    ///
    /// # Errors
    ///
    /// Fails on truncation.
    pub(crate) fn skip(&mut self, wire: WireType) -> Result<(), OnnxError> {
        match wire {
            WireType::Varint => {
                self.varint()?;
            }
            WireType::Fixed64 => {
                for _ in 0..8 {
                    self.byte()?;
                }
            }
            WireType::LengthDelimited => {
                self.bytes()?;
            }
            WireType::Fixed32 => {
                for _ in 0..4 {
                    self.byte()?;
                }
            }
        }
        Ok(())
    }

    fn byte(&mut self) -> Result<u8, OnnxError> {
        if self.pos >= self.buf.len() {
            return Err(OnnxError::Malformed {
                detail: "unexpected end of buffer".into(),
            });
        }
        let b = self.buf[self.pos];
        self.pos += 1;
        Ok(b)
    }
}

/// An append-only protobuf writer.
#[derive(Debug, Clone, Default)]
pub(crate) struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub(crate) fn new() -> Self {
        Writer::default()
    }

    /// Finishes and returns the encoded bytes.
    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes a raw varint.
    pub(crate) fn varint(&mut self, mut v: u64) -> &mut Self {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return self;
            }
            self.buf.push(byte | 0x80);
        }
    }

    fn key(&mut self, field: u64, wire: WireType) -> &mut Self {
        self.varint((field << 3) | wire.bits())
    }

    /// Writes a varint field (skipped when `v == 0`, per proto3
    /// default-elision).
    pub(crate) fn field_varint(&mut self, field: u64, v: u64) -> &mut Self {
        if v != 0 {
            self.key(field, WireType::Varint).varint(v);
        }
        self
    }

    /// Writes an int64 field (always emitted, including zero, because
    /// readers of ONNX attributes distinguish present-zero from absent).
    pub(crate) fn field_int64_always(&mut self, field: u64, v: i64) -> &mut Self {
        self.key(field, WireType::Varint).varint(v as u64)
    }

    /// Writes a length-delimited bytes field.
    pub(crate) fn field_bytes(&mut self, field: u64, bytes: &[u8]) -> &mut Self {
        self.key(field, WireType::LengthDelimited)
            .varint(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
        self
    }

    /// Writes a string field (skipped when empty).
    pub(crate) fn field_string(&mut self, field: u64, s: &str) -> &mut Self {
        if !s.is_empty() {
            self.field_bytes(field, s.as_bytes());
        }
        self
    }

    /// Writes a float field including zero values (ONNX attribute
    /// payloads must be explicit).
    pub(crate) fn field_float_always(&mut self, field: u64, v: f32) -> &mut Self {
        self.key(field, WireType::Fixed32);
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Writes a nested message field from another writer's bytes.
    pub(crate) fn field_message(&mut self, field: u64, inner: &Writer) -> &mut Self {
        self.field_bytes(field, &inner.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trip() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            16383,
            16384,
            u32::MAX as u64,
            u64::MAX,
        ] {
            let mut w = Writer::new();
            w.varint(v);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(r.varint().unwrap(), v);
            assert!(r.is_at_end());
        }
    }

    #[test]
    fn key_round_trip() {
        let mut w = Writer::new();
        w.field_varint(3, 42);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let (field, wire) = r.key().unwrap();
        assert_eq!(field, 3);
        assert_eq!(wire, WireType::Varint);
        assert_eq!(r.varint().unwrap(), 42);
    }

    #[test]
    fn string_and_bytes_round_trip() {
        let mut w = Writer::new();
        w.field_string(4, "conv1");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let (field, wire) = r.key().unwrap();
        assert_eq!((field, wire), (4, WireType::LengthDelimited));
        assert_eq!(r.string().unwrap(), "conv1");
    }

    #[test]
    fn float_round_trip() {
        let mut w = Writer::new();
        w.field_float_always(2, 0.75);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let (field, wire) = r.key().unwrap();
        assert_eq!((field, wire), (2, WireType::Fixed32));
        assert_eq!(r.float().unwrap(), 0.75);
    }

    #[test]
    fn skip_passes_over_unknown_fields() {
        let mut w = Writer::new();
        w.field_varint(1, 7);
        w.field_bytes(2, b"junk");
        w.field_varint(3, 9);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let (f1, w1) = r.key().unwrap();
        assert_eq!(f1, 1);
        r.skip(w1).unwrap();
        let (f2, w2) = r.key().unwrap();
        assert_eq!(f2, 2);
        r.skip(w2).unwrap();
        let (f3, _) = r.key().unwrap();
        assert_eq!(f3, 3);
        assert_eq!(r.varint().unwrap(), 9);
    }

    #[test]
    fn truncated_input_is_rejected() {
        let mut w = Writer::new();
        w.field_bytes(1, b"hello");
        let mut bytes = w.into_bytes();
        bytes.truncate(bytes.len() - 2);
        let mut r = Reader::new(&bytes);
        let (_, wire) = r.key().unwrap();
        assert_eq!(wire, WireType::LengthDelimited);
        assert!(r.bytes().is_err());
    }

    #[test]
    fn zero_valued_proto3_fields_are_elided() {
        let mut w = Writer::new();
        w.field_varint(1, 0);
        w.field_string(2, "");
        assert!(w.into_bytes().is_empty());
    }
}
