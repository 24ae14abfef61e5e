// Package tokens provides the token-count approximation used for every
// cost metric in the experiments (Table 1, Table 2, and the
// idealized-transfer estimate in §3.4 of the paper).
//
// Real GPT/Claude tokenizers are unavailable offline, so Count uses the
// standard approximation blending word count and character count. All
// comparisons in the paper are relative (BridgeScope vs PG-MCP under the
// same tokenizer), so the approximation preserves every reported shape.
package tokens

import (
	"unicode"
	"unicode/utf8"
)

// What a rune adds to the word count.
const (
	inWord = 1 << iota // not white space: the first of a run starts a word
	split              // punctuation or symbol: usually a token of its own
)

// asciiClass holds classify for the runes below utf8.RuneSelf, which is
// nearly all Count ever sees: prompts, JSON and SQL.
var asciiClass [utf8.RuneSelf]uint8

func init() {
	for r := range asciiClass {
		asciiClass[r] = classify(rune(r))
	}
}

func classify(r rune) uint8 {
	switch {
	case unicode.IsSpace(r):
		return 0
	case unicode.IsPunct(r) || unicode.IsSymbol(r):
		return inWord | split
	}
	return inWord
}

// Count estimates the number of LLM tokens in s. The estimate is
// max(words*4/3, chars/4): prose tokenizes near 0.75 words/token and dense
// numeric or code text near 4 chars/token.
func Count(s string) int {
	if s == "" {
		return 0
	}
	words := 0
	var prev uint8 // class of the rune before
	for _, r := range s {
		class := asciiClass[r&(utf8.RuneSelf-1)]
		if r >= utf8.RuneSelf {
			class = classify(r)
		}
		words += int(class&^prev&inWord + class/split) // a word's first rune; a split rune once more
		prev = class
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
