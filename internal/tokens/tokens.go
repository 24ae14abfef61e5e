// Package tokens provides the token-count approximation and accounting used
// for every cost metric in the experiments (Table 1, Table 2, and the
// idealized-transfer estimate in §3.4 of the paper).
//
// Real GPT/Claude tokenizers are unavailable offline, so Count uses the
// standard approximation blending word count and character count. All
// comparisons in the paper are relative (BridgeScope vs PG-MCP under the
// same tokenizer), so the approximation preserves every reported shape.
package tokens

import (
	"sync"
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

// Meter accumulates prompt and completion token counts for one agent run.
// It is safe for concurrent use.
type Meter struct {
	mu         sync.Mutex
	prompt     int
	completion int
	calls      int
}

// AddCall records one LLM invocation with its prompt and completion sizes.
func (m *Meter) AddCall(promptTokens, completionTokens int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.calls++
	m.prompt += promptTokens
	m.completion += completionTokens
}

// Calls returns the number of LLM invocations recorded.
func (m *Meter) Calls() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.calls
}

// Prompt returns the accumulated prompt tokens.
func (m *Meter) Prompt() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.prompt
}

// Completion returns the accumulated completion tokens.
func (m *Meter) Completion() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.completion
}

// Total returns prompt + completion tokens.
func (m *Meter) Total() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.prompt + m.completion
}
