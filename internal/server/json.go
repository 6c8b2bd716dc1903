package server

import (
	"strconv"
	"strings"
	"unicode/utf8"
)

// AppendJSON appends the response's JSON encoding to dst: exactly
// json.Marshal(r)'s bytes — field order, omitempty, and encoding/json's
// HTML-safe string escaping — without reflection or a second copy of
// the rendered result.
func (r *Response) AppendJSON(dst []byte) []byte {
	dst = strconv.AppendBool(append(dst, `{"ok":`...), r.OK)
	dst = appendField(dst, `,"output":`, r.Output, 0)
	dst = appendField(dst, `,"rows":`, "", r.Rows)
	dst = appendField(dst, `,"tuples":`, "", r.Tuples)
	dst = appendField(dst, `,"cache":`, r.Cache, 0)
	dst = appendField(dst, `,"plan":`, r.Plan, 0)
	dst = appendField(dst, `,"error":`, r.Error, 0)
	dst = appendField(dst, `,"code":`, r.Code, 0)
	dst = appendField(dst, `,"retry_after_ms":`, "", r.RetryAfterMS)
	return append(dst, '}')
}

// appendField appends one omitempty field: a string field when s is
// non-empty, an integer field when n is non-zero.
func appendField(dst []byte, name, s string, n int64) []byte {
	switch {
	case s != "":
		return appendJSONString(append(dst, name...), s)
	case n != 0:
		return strconv.AppendInt(append(dst, name...), n, 10)
	}
	return dst
}

// appendJSONString is encoding/json's string encoder with HTML escaping
// on: <, > and & become \u003c, \u003e and \u0026, control bytes take the
// short forms \b \f \n \r \t where they exist, invalid UTF-8 becomes
// \ufffd, and U+2028/U+2029 are escaped for JSONP safety.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b, c, size := s[i], rune(s[i]), 1
		if b >= utf8.RuneSelf {
			c, size = utf8.DecodeRuneInString(s[i:])
			if (c != utf8.RuneError || size > 1) && c != '\u2028' && c != '\u2029' {
				i += size
				continue
			}
		} else if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
			i++
			continue
		}
		dst = append(dst, s[start:i]...)
		switch short := strings.IndexByte("\"\\\b\f\n\r\t", b); {
		case c == utf8.RuneError:
			dst = append(dst, `\ufffd`...)
		case b >= utf8.RuneSelf:
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
		case short >= 0:
			dst = append(dst, '\\', `"\bfnrt`[short])
		default:
			dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}
