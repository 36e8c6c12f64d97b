// Package analysis is a self-contained static-analysis framework for
// abasecheck, the suite that mechanically enforces this repository's
// protocol invariants (context-first APIs, clock discipline, sentinel
// matching, lock pairing, RU accounting, and the DataNode's single
// admission site).
//
// The types mirror the golang.org/x/tools/go/analysis vocabulary —
// Analyzer, Pass, Diagnostic — so the analyzers read like standard
// go/analysis checkers and can be ported onto x/tools with a one-line
// adapter when that dependency is available. This module is built
// offline against the standard library only, so the framework itself
// is implemented here: package loading goes through `go list -export`
// plus the gc export-data importer (see the load subpackage), and
// golden-file testing through the analysistest subpackage.
//
// The analyzers live in subpackages (ctxfirst, clockdiscipline,
// sentinelis, lockdiscipline, rucharge, pipelinesite), are assembled
// by the suite subpackage, and are driven by cmd/abasecheck —
// standalone over `go list` patterns or as a `go vet -vettool`.
package analysis
