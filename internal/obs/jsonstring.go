package obs

import "unicode/utf8"

const hexDigits = "0123456789abcdef"

// AppendJSONString appends s as a JSON string literal, byte for byte
// what encoding/json.Marshal(s) writes: the short escapes for quote,
// backslash, \b, \f, \n, \r and \t; \u00XX for the other control bytes
// and for <, > and & (Marshal's HTML-safe default); the same six-byte
// escape for U+2028 and U+2029, and that of U+FFFD for each byte of
// invalid UTF-8. Cell keys embed template-provided text, so every JSON
// artifact (the canonical event log, the live stream, the per-trial
// JSONL) quotes them through this one helper, without Marshal's
// allocation per call.
func AppendJSONString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			buf = append(buf, s[start:i]...)
			switch b {
			case '\\', '"':
				buf = append(buf, '\\', b)
			case '\b':
				buf = append(buf, '\\', 'b')
			case '\f':
				buf = append(buf, '\\', 'f')
			case '\n':
				buf = append(buf, '\\', 'n')
			case '\r':
				buf = append(buf, '\\', 'r')
			case '\t':
				buf = append(buf, '\\', 't')
			default:
				buf = append(buf, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			buf = append(buf, s[start:i]...)
			buf = append(buf, '\\', 'u', 'f', 'f', 'f', 'd')
			start = i + size
		case c == 0x2028 || c == 0x2029:
			buf = append(buf, s[start:i]...)
			buf = append(buf, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	buf = append(buf, s[start:]...)
	return append(buf, '"')
}
