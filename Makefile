GO ?= go
SQLVET := $(CURDIR)/bin/sqlvet

.PHONY: all build test race lint vet sqlvet sqlvet-vettool sarif staticcheck vulncheck bench benchmark-check loc clean

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint is the one entry point CI and developers share: the stock go vet
# checks plus the repo's own invariant analyzers (cmd/sqlvet) in standalone
# mode, gated by the checked-in baseline. The exit codes carry the verdict
# (0 clean, 1 findings or stale baseline, 2 analysis failure) — no output
# grepping anywhere.
lint: vet sqlvet

vet:
	$(GO) vet ./...

$(SQLVET): $(shell find cmd/sqlvet internal/analysis -name '*.go' -not -path '*/testdata/*' 2>/dev/null)
	@mkdir -p $(dir $(SQLVET))
	$(GO) build -o $(SQLVET) ./cmd/sqlvet

sqlvet: $(SQLVET)
	$(SQLVET) -baseline .sqlvet-baseline.json -fail-stale ./...

# The same analyzers driven by the go command's vet protocol (per-package
# caching, exit 2 on any diagnostic — the protocol's code, not ours).
sqlvet-vettool: $(SQLVET)
	$(GO) vet -vettool=$(SQLVET) ./...

# SARIF 2.1.0 report for code-scanning UIs; exit 1 (findings) still yields
# a report, so || distinguishes it from a genuine tool failure.
sarif: $(SQLVET)
	$(SQLVET) -sarif ./... > sqlvet.sarif || [ $$? -eq 1 ]

# Optional extra linters; skipped gracefully when the tools are not on PATH
# (this repo's build environment is offline — CI installs pinned versions).
staticcheck:
	@command -v staticcheck >/dev/null 2>&1 && staticcheck ./... || echo "staticcheck not installed; skipping (CI pins honnef.co/go/tools@2025.1.1)"

vulncheck:
	@command -v govulncheck >/dev/null 2>&1 && govulncheck ./... || echo "govulncheck not installed; skipping (CI pins golang.org/x/vuln@v1.1.4)"

bench:
	$(GO) test -run '^$$' -bench=. -benchtime=1x ./internal/sqldb
	$(GO) test -run '^$$' -bench 'BenchmarkProxyTwoProducers|BenchmarkTransformMatrix|BenchmarkSelectToolOverhead|BenchmarkListTools|BenchmarkNewToolkit|BenchmarkAgentStaticPrefix' -benchtime=1x ./internal/core ./internal/agent

# benchmark/ is a module of its own, so build, vet and test above do not see
# it: a change under internal/ can break the repository benchmark unnoticed.
# Run this with every such change.
benchmark-check:
	cd benchmark && $(GO) vet . && $(GO) test .

# The three non-test line counts ROADMAP aim 2 tracks (plain wc -l, comments
# and blank lines included).
loc:
	@for d in internal/sqldb cmd/benchrunner internal/core; do \
		printf '%-18s %6d\n' $$d $$(ls $$d/*.go | grep -v _test.go | xargs cat | wc -l); \
	done

clean:
	rm -rf bin sqlvet.sarif
