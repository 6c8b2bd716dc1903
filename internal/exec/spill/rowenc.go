package spill

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"freejoin/internal/relation"
)

// Row encoding: uvarint arity, then one value after another. Each value
// is a one-byte kind tag followed by its payload — nothing for null,
// 0/1 for bool, a zigzag varint for int, 8 big-endian bits for float,
// a uvarint length plus raw bytes for string. The encoding is
// self-delimiting, so runs concatenate rows with no framing, and unlike
// relation.AppendKey it round-trips every value exactly (AppendKey is an
// ordering/identity key, not a codec).
const (
	tagNull  = 'N'
	tagFalse = 'F'
	tagTrue  = 'T'
	tagInt   = 'I'
	tagFloat = 'D'
	tagStr   = 'S'
)

// appendRow appends the encoding of row to b.
func appendRow(b []byte, row []relation.Value) []byte {
	b = binary.AppendUvarint(b, uint64(len(row)))
	for _, v := range row {
		switch v.Kind() {
		case relation.KindNull:
			b = append(b, tagNull)
		case relation.KindBool:
			if v.AsBool() {
				b = append(b, tagTrue)
			} else {
				b = append(b, tagFalse)
			}
		case relation.KindInt:
			b = append(b, tagInt)
			b = binary.AppendVarint(b, v.AsInt())
		case relation.KindFloat:
			b = append(b, tagFloat)
			b = binary.BigEndian.AppendUint64(b, math.Float64bits(v.AsFloat()))
		case relation.KindString:
			s := v.AsString()
			b = append(b, tagStr)
			b = binary.AppendUvarint(b, uint64(len(s)))
			b = append(b, s...)
		}
	}
	return b
}

// errTruncated reports a run that ends inside a row.
var errTruncated = errors.New("spill: truncated run")

// decodeRow appends the values of the row encoded at the start of b to
// dst and returns the bytes consumed. n == 0 means b holds only a prefix
// of the row; dst is then returned as it came in.
func decodeRow(dst []relation.Value, b []byte) (out []relation.Value, n int, err error) {
	arity, n := binary.Uvarint(b)
	if n <= 0 {
		return dst, 0, varintErr(n)
	}
	out = dst
	for i := uint64(0); i < arity; i++ {
		if n >= len(b) {
			return dst, 0, nil
		}
		tag := b[n]
		n++
		switch tag {
		case tagNull:
			out = append(out, relation.Null())
		case tagFalse:
			out = append(out, relation.Bool(false))
		case tagTrue:
			out = append(out, relation.Bool(true))
		case tagInt:
			v, k := binary.Varint(b[n:])
			if k <= 0 {
				return dst, 0, varintErr(k)
			}
			n += k
			out = append(out, relation.Int(v))
		case tagFloat:
			if len(b)-n < 8 {
				return dst, 0, nil
			}
			out = append(out, relation.Float(math.Float64frombits(binary.BigEndian.Uint64(b[n:]))))
			n += 8
		case tagStr:
			l, k := binary.Uvarint(b[n:])
			if k <= 0 {
				return dst, 0, varintErr(k)
			}
			n += k
			if uint64(len(b)-n) < l {
				return dst, 0, nil
			}
			out = append(out, relation.Str(string(b[n:n+int(l)])))
			n += int(l)
		default:
			return dst, 0, fmt.Errorf("spill: corrupt run: unknown value tag %q", tag)
		}
	}
	return out, n, nil
}

// varintErr maps a binary.(U)varint status to decodeRow's convention:
// 0 (buffer too short) is an incomplete row, negative an overflow.
func varintErr(n int) error {
	if n < 0 {
		return fmt.Errorf("spill: corrupt run: varint overflow")
	}
	return nil
}
