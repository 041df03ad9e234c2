// Porter stemming algorithm (M.F. Porter, "An algorithm for suffix
// stripping", Program 14(3), 1980), ported from the author's public
// domain ANSI C reference implementation, including its two published
// departures from the original paper (bli→ble in step 2 rather than
// abli→able, and the added logi→log rule).
//
// Only lowercase ASCII letters are stemmed; Stem lowercases its input
// and returns tokens containing other bytes unchanged.

package textproc

type stemmer struct {
	b []byte // working buffer
	k int    // index of last letter of the current word
	j int    // general offset maintained by ends()
}

// isCons reports whether b[i] is a consonant. 'y' is a consonant at the
// start of the word or after a vowel, i.e. when the previous letter is
// not a consonant.
func (z *stemmer) isCons(i int) bool {
	switch z.b[i] {
	case 'a', 'e', 'i', 'o', 'u':
		return false
	case 'y':
		if i == 0 {
			return true
		}
		return !z.isCons(i - 1)
	default:
		return true
	}
}

// measure counts the consonant-vowel sequences (the "m" of the paper)
// in b[0..j].
func (z *stemmer) measure() int {
	n, i := 0, 0
	for {
		if i > z.j {
			return n
		}
		if !z.isCons(i) {
			break
		}
		i++
	}
	i++
	for {
		for {
			if i > z.j {
				return n
			}
			if z.isCons(i) {
				break
			}
			i++
		}
		i++
		n++
		for {
			if i > z.j {
				return n
			}
			if !z.isCons(i) {
				break
			}
			i++
		}
		i++
	}
}

// vowelInStem reports whether b[0..j] contains a vowel.
func (z *stemmer) vowelInStem() bool {
	for i := 0; i <= z.j; i++ {
		if !z.isCons(i) {
			return true
		}
	}
	return false
}

// doubleC reports whether b[i-1..i] is a double consonant.
func (z *stemmer) doubleC(i int) bool {
	if i < 1 {
		return false
	}
	if z.b[i] != z.b[i-1] {
		return false
	}
	return z.isCons(i)
}

// cvc reports whether b[i-2..i] is consonant-vowel-consonant with the
// final consonant not w, x or y; used to restore a trailing e as in
// cav(e), lov(e), hop(e).
func (z *stemmer) cvc(i int) bool {
	if i < 2 || !z.isCons(i) || z.isCons(i-1) || !z.isCons(i-2) {
		return false
	}
	switch z.b[i] {
	case 'w', 'x', 'y':
		return false
	}
	return true
}

// ends reports whether b[0..k] ends with s, setting j to the offset just
// before the suffix when it does.
func (z *stemmer) ends(s string) bool {
	l := len(s)
	if l > z.k+1 {
		return false
	}
	if string(z.b[z.k+1-l:z.k+1]) != s {
		return false
	}
	z.j = z.k - l
	return true
}

// setTo replaces the suffix after j with s and adjusts k.
func (z *stemmer) setTo(s string) {
	z.b = append(z.b[:z.j+1], s...)
	z.k = z.j + len(s)
}

// r replaces the suffix with s when the stem before it has m > 0.
func (z *stemmer) r(s string) {
	if z.measure() > 0 {
		z.setTo(s)
	}
}

// step1ab removes plurals and -ed / -ing.
func (z *stemmer) step1ab() {
	if z.b[z.k] == 's' {
		switch {
		case z.ends("sses"):
			z.k -= 2
		case z.ends("ies"):
			z.setTo("i")
		case z.b[z.k-1] != 's':
			z.k--
		}
	}
	if z.ends("eed") {
		if z.measure() > 0 {
			z.k--
		}
	} else if (z.ends("ed") || z.ends("ing")) && z.vowelInStem() {
		z.k = z.j
		switch {
		case z.ends("at"):
			z.setTo("ate")
		case z.ends("bl"):
			z.setTo("ble")
		case z.ends("iz"):
			z.setTo("ize")
		case z.doubleC(z.k):
			z.k--
			switch z.b[z.k] {
			case 'l', 's', 'z':
				z.k++
			}
		default:
			if z.measure() == 1 && z.cvc(z.k) {
				z.setTo("e")
			}
		}
	}
}

// step1c turns terminal y into i when there is another vowel in the stem.
func (z *stemmer) step1c() {
	if z.ends("y") && z.vowelInStem() {
		z.b[z.k] = 'i'
	}
}

// step2 maps double suffixes to single ones for stems with m > 0.
func (z *stemmer) step2() {
	if z.k < 1 {
		return
	}
	switch z.b[z.k-1] {
	case 'a':
		if z.ends("ational") {
			z.r("ate")
		} else if z.ends("tional") {
			z.r("tion")
		}
	case 'c':
		if z.ends("enci") {
			z.r("ence")
		} else if z.ends("anci") {
			z.r("ance")
		}
	case 'e':
		if z.ends("izer") {
			z.r("ize")
		}
	case 'l':
		if z.ends("bli") {
			z.r("ble")
		} else if z.ends("alli") {
			z.r("al")
		} else if z.ends("entli") {
			z.r("ent")
		} else if z.ends("eli") {
			z.r("e")
		} else if z.ends("ousli") {
			z.r("ous")
		}
	case 'o':
		if z.ends("ization") {
			z.r("ize")
		} else if z.ends("ation") {
			z.r("ate")
		} else if z.ends("ator") {
			z.r("ate")
		}
	case 's':
		if z.ends("alism") {
			z.r("al")
		} else if z.ends("iveness") {
			z.r("ive")
		} else if z.ends("fulness") {
			z.r("ful")
		} else if z.ends("ousness") {
			z.r("ous")
		}
	case 't':
		if z.ends("aliti") {
			z.r("al")
		} else if z.ends("iviti") {
			z.r("ive")
		} else if z.ends("biliti") {
			z.r("ble")
		}
	case 'g':
		if z.ends("logi") {
			z.r("log")
		}
	}
}

// step3 handles -ic-, -full, -ness and similar.
func (z *stemmer) step3() {
	switch z.b[z.k] {
	case 'e':
		if z.ends("icate") {
			z.r("ic")
		} else if z.ends("ative") {
			z.r("")
		} else if z.ends("alize") {
			z.r("al")
		}
	case 'i':
		if z.ends("iciti") {
			z.r("ic")
		}
	case 'l':
		if z.ends("ical") {
			z.r("ic")
		} else if z.ends("ful") {
			z.r("")
		}
	case 's':
		if z.ends("ness") {
			z.r("")
		}
	}
}

// step4 removes -ant, -ence and similar from stems with m > 1.
func (z *stemmer) step4() {
	if z.k < 1 {
		return
	}
	switch z.b[z.k-1] {
	case 'a':
		if !z.ends("al") {
			return
		}
	case 'c':
		if !z.ends("ance") && !z.ends("ence") {
			return
		}
	case 'e':
		if !z.ends("er") {
			return
		}
	case 'i':
		if !z.ends("ic") {
			return
		}
	case 'l':
		if !z.ends("able") && !z.ends("ible") {
			return
		}
	case 'n':
		if !z.ends("ant") && !z.ends("ement") && !z.ends("ment") && !z.ends("ent") {
			return
		}
	case 'o':
		if z.ends("ion") && z.j >= 0 && (z.b[z.j] == 's' || z.b[z.j] == 't') {
			// allowed
		} else if !z.ends("ou") {
			return
		}
	case 's':
		if !z.ends("ism") {
			return
		}
	case 't':
		if !z.ends("ate") && !z.ends("iti") {
			return
		}
	case 'u':
		if !z.ends("ous") {
			return
		}
	case 'v':
		if !z.ends("ive") {
			return
		}
	case 'z':
		if !z.ends("ize") {
			return
		}
	default:
		return
	}
	if z.measure() > 1 {
		z.k = z.j
	}
}

// step5 removes a final -e and reduces -ll for stems with m > 1.
func (z *stemmer) step5() {
	z.j = z.k
	if z.b[z.k] == 'e' {
		a := z.measure()
		if a > 1 || (a == 1 && !z.cvc(z.k-1)) {
			z.k--
		}
	}
	if z.b[z.k] == 'l' && z.doubleC(z.k) && z.measure() > 1 {
		z.k--
	}
}

// Stem returns the Porter stem of word. The input must already be
// lowercase; words shorter than three letters or containing bytes
// outside 'a'..'z' are returned unchanged.
func Stem(word string) string {
	return string(stemBytes([]byte(word)))
}

// stemBytes stems word in place, under Stem's rules, and returns the
// stem, a prefix of word's backing array.
func stemBytes(word []byte) []byte {
	if len(word) <= 2 {
		return word
	}
	for _, c := range word {
		if c < 'a' || c > 'z' {
			return word
		}
	}
	z := stemmer{b: word, k: len(word) - 1}
	z.step1ab()
	z.step1c()
	z.step2()
	z.step3()
	z.step4()
	z.step5()
	return z.b[:z.k+1]
}
