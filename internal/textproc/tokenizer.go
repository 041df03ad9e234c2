package textproc

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Character classes of the tokenizer. classWide marks a byte that
// starts a multi-byte (or invalid) UTF-8 sequence, which must be decoded.
const (
	classDigit uint8 = 1 << iota
	classLetter
	classWide
)

// byteClass classifies a rune by its first byte: ASCII letters and
// digits as unicode.IsLetter and unicode.IsDigit do, and every byte from
// utf8.RuneSelf up as classWide.
var byteClass = func() (t [256]uint8) {
	for c := '0'; c <= '9'; c++ {
		t[c] = classDigit
	}
	for c := 'a'; c <= 'z'; c++ {
		t[c] = classLetter
		t[c-'a'+'A'] = classLetter
	}
	for c := utf8.RuneSelf; c < len(t); c++ {
		t[c] = classWide
	}
	return t
}()

// wideClass classifies the non-ASCII rune text starts with and returns
// its width. Invalid UTF-8 decodes as one U+FFFD byte, which is neither
// a letter nor a digit.
func wideClass(text string) (uint8, int) {
	r, n := utf8.DecodeRuneInString(text)
	switch {
	case unicode.IsLetter(r):
		return classLetter, n
	case unicode.IsDigit(r):
		return classDigit, n
	}
	return 0, n
}

// nextToken finds the first token that starts at or after text[i] and
// returns its bounds and whether it is pure ASCII. It returns
// start == len(text) when no token is left.
func nextToken(text string, i int) (start, end int, ascii bool) {
	start = -1
	var seen uint8
	var runes int
	for n := 1; i < len(text); i += n {
		var cls uint8
		if cls, n = byteClass[text[i]], 1; cls == classWide {
			cls, n = wideClass(text[i:])
		}
		if cls != 0 {
			if start < 0 {
				start, seen, runes, ascii = i, 0, 0, true
			}
			seen |= cls
			runes++
			// Inside a token a one-byte rune is an ASCII one: an invalid
			// byte has class 0 and ends the token.
			ascii = ascii && n == 1
			continue
		}
		if start >= 0 && runes >= 2 && seen&classLetter != 0 {
			return start, i, ascii
		}
		start = -1
	}
	if start >= 0 && runes >= 2 && seen&classLetter != 0 {
		return start, len(text), ascii
	}
	return len(text), len(text), false
}

// Tokenize splits text into lowercase word tokens and calls fn for each
// one. A token is a maximal run of letters and digits; it is kept only
// if it contains at least one letter and at least two characters, which
// discards punctuation noise and bare numbers the same way the standard
// indexing pipeline of [Baeza-Yates & Ribeiro-Neto 1999] does.
//
// A token that is already lowercase is handed to fn as a substring of
// text; any other token costs one allocation for its lowercased copy.
// Pipeline.Counts scans with the same rules and lowercases ASCII tokens
// into a reused buffer instead.
func Tokenize(text string, fn func(token string)) {
	for i := 0; ; {
		start, end, _ := nextToken(text, i)
		if start == len(text) {
			return
		}
		fn(strings.ToLower(text[start:end]))
		i = end
	}
}

// Tokens returns all tokens of text as a slice; a convenience wrapper
// around Tokenize for tests and small inputs.
func Tokens(text string) []string {
	var out []string
	Tokenize(text, func(tok string) { out = append(out, tok) })
	return out
}
