// Package vfsio enforces invariant L7: durability-relevant file I/O goes
// through the vfs seam. The engine's crash story — FaultFS, the
// deterministic crash simulator, torn-write reconstruction — only covers
// writes that pass through vfs.FS; a direct os.Create in a storage path is
// invisible to fault injection, so its failure modes ship untested. This
// is exactly how the csvdb export bug hid: the engine's WAL was
// crash-safe while the CSV snapshot next to it was written with a bare
// os.Create.
//
// Write-side os calls (Create, CreateTemp, OpenFile, Rename, Remove,
// RemoveAll, Truncate, WriteFile, Mkdir, MkdirAll) are confined to the vfs
// package itself and to whitelisted cmd/ tools that operate on the user's
// files by design (the bench runner's workdirs, sqlvet's .vetx cache).
// Read-only calls (Open, ReadFile, ReadDir, Stat) are exempt: reads cannot
// tear, and the loaders that want fault coverage take a vfs.FS anyway.
package vfsio

import (
	"go/ast"
	"go/types"
	"strings"

	"bridgescope/internal/analysis/framework"
)

var Analyzer = &framework.Analyzer{
	Name: "vfsio",
	Doc: "flags write-side os file calls (Create, OpenFile, Rename, Remove, Truncate, WriteFile, ...) outside " +
		"the vfs package and whitelisted cmd tools; durability-relevant I/O must pass through vfs.FS so " +
		"fault injection covers it",
	Run: run,
}

// forbidden lists the write-side os entry points. Values explain what the
// seam equivalent is, for the diagnostic.
var forbidden = map[string]string{
	"os.Create":     "vfs.FS.OpenFile with vfs.O_CREATE|vfs.O_TRUNC",
	"os.CreateTemp": "vfs.FS.CreateTemp",
	"os.OpenFile":   "vfs.FS.OpenFile",
	"os.Rename":     "vfs.FS.Rename",
	"os.Remove":     "vfs.FS.Remove",
	"os.RemoveAll":  "vfs.FS.Remove per entry",
	"os.Truncate":   "vfs.FS.Truncate",
	"os.WriteFile":  "vfs.FS.OpenFile + Write + Sync",
	"os.Mkdir":      "vfs.FS.MkdirAll",
	"os.MkdirAll":   "vfs.FS.MkdirAll",
}

// allowedPkgs are package paths that own the seam or operate on user files
// by design.
var allowedPkgs = map[string]bool{
	"bridgescope/cmd/sqlvet": true, // the .vetx fact cache is tool state, not database state
}

func run(pass *framework.Pass) error {
	path := pass.Pkg.Path()
	if allowedPkgs[path] || path == "vfs" || strings.HasSuffix(path, "/vfs") ||
		strings.HasPrefix(path, "bridgescope/examples/") {
		// examples/ are demo drivers that set up their own scratch files,
		// like the whitelisted cmd tools.
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "os" {
				return true
			}
			full := fn.FullName()
			seam, bad := forbidden[full]
			if !bad {
				return true
			}
			pass.Reportf(call.Pos(),
				"%s bypasses the vfs seam; use %s so fault injection and crash simulation cover this write",
				full, seam)
			return true
		})
	}
	return nil
}
