package tokens

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

func TestCountBasics(t *testing.T) {
	if Count("") != 0 {
		t.Fatal("empty string must count 0")
	}
	if Count("a") < 1 {
		t.Fatal("non-empty string must count at least 1")
	}
	prose := Count("the quick brown fox jumps over the lazy dog")
	if prose < 9 || prose > 20 {
		t.Fatalf("prose estimate out of range: %d", prose)
	}
	dense := Count(strings.Repeat("0.123456789|", 100))
	if dense < 200 {
		t.Fatalf("dense numeric text should cost many tokens, got %d", dense)
	}
}

func TestCountScalesWithLength(t *testing.T) {
	small := Count(strings.Repeat("word ", 100))
	big := Count(strings.Repeat("word ", 10000))
	if big < 50*small {
		t.Fatalf("count should scale roughly linearly: %d vs %d", small, big)
	}
}

func TestCountNonNegativeProperty(t *testing.T) {
	f := func(s string) bool { return Count(s) >= 0 }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCountSuperadditiveProperty(t *testing.T) {
	// Concatenation should never count fewer tokens than the longer part.
	f := func(a, b string) bool {
		c := Count(a + b)
		return c >= Count(a) && c >= Count(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// countReference is Count as it was before ASCII was classified through a
// table: three unicode predicate calls per rune. Count must agree with it on
// every input.
func countReference(s string) int {
	if s == "" {
		return 0
	}
	words := 0
	inWord := false
	for _, r := range s {
		if unicode.IsSpace(r) {
			inWord = false
			continue
		}
		if !inWord {
			words++
			inWord = true
		}
		if unicode.IsPunct(r) || unicode.IsSymbol(r) {
			words++
		}
	}
	byWords := words * 4 / 3
	byChars := len(s) / 4
	if byWords > byChars {
		return byWords
	}
	if byChars == 0 {
		return 1
	}
	return byChars
}

// realInputs are what the agent actually counts, captured from a real
// toolkit, with their counts recorded before the table existed.
var realInputs = map[string]int{"system_prompt.txt": 522, "tool_list.json": 2190}

func readTestdata(t testing.TB, name string) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// countSeeds are the inputs where a table and the predicates could disagree:
// every ASCII class boundary, runes of every class outside ASCII (the
// Latin-1 spaces U+0085 and U+00A0, accented letters, CJK, emoji, the
// replacement character, format characters) alone and between ASCII, bytes
// that are not UTF-8, and the real inputs.
func countSeeds(t testing.TB) []string {
	t.Helper()
	seeds := []string{
		"", " ", "a", "a b", "\t\n\v\f\r", "a\tb\rc\vd\fe", "xy", "x y",
		"<>&", "a<b>&c", `{"k":[1,2.5,"v"],"n":null}`, "SELECT * FROM t WHERE x >= 10;", "$1 + 2^3 = ~9 | `q`",
		"\x7f\x00\x1f", "\xff", "a\xffb", "\xc3(", "\xe2\x82", "ok \xf0\x9f\x99 cut", "\xed\xa0\x80",
	}
	var all strings.Builder
	for r := rune(0); r < 0x180; r++ {
		all.WriteRune(r)
		seeds = append(seeds, string(r), "w"+string(r)+"w", "w "+string(r)+" w")
	}
	for _, r := range []rune{0x2028, 0x3000, 0x200b, 0xfeff, 0x0300, 0x0663, 0x2177, 0x6570, 0x636e, 0x3001,
		0xfffd, 0x20ac, 0x1f642, 0x1f44d, 0x1f3fd, 0x10ffff} {
		all.WriteRune(r)
		seeds = append(seeds, string(r), "w"+string(r)+"w", "w "+string(r)+" w")
	}
	seeds = append(seeds, all.String())
	for name := range realInputs {
		seeds = append(seeds, readTestdata(t, name))
	}
	return seeds
}

func TestCountMatchesReference(t *testing.T) {
	for _, s := range countSeeds(t) {
		if got, want := Count(s), countReference(s); got != want {
			t.Errorf("Count(%q) = %d, reference %d", s, got, want)
		}
	}
	for name, want := range realInputs {
		if got := Count(readTestdata(t, name)); got != want {
			t.Errorf("Count(%s) = %d, recorded %d", name, got, want)
		}
	}
	agree := func(s string) bool { return Count(s) == countReference(s) }
	if err := quick.Check(agree, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	// quick's strings are mostly non-ASCII runes; its bytes are mostly
	// invalid UTF-8 with ASCII in between.
	agreeBytes := func(b []byte) bool { return agree(string(b)) }
	if err := quick.Check(agreeBytes, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func FuzzCount(f *testing.F) {
	for _, s := range countSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := Count(s), countReference(s); got != want {
			t.Fatalf("Count(%q) = %d, reference %d", s, got, want)
		}
	})
}

func BenchmarkCount(b *testing.B) {
	s := readTestdata(b, "tool_list.json")
	b.SetBytes(int64(len(s)))
	for b.Loop() {
		if Count(s) == 0 {
			b.Fatal("zero")
		}
	}
}
