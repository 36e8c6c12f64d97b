// Package suite assembles the abasecheck analyzers. cmd/abasecheck
// and the analysis tests share this list so a checker cannot be wired
// into one but not the other.
package suite

import (
	"abase/internal/analysis"
	"abase/internal/analysis/clockdiscipline"
	"abase/internal/analysis/ctxfirst"
	"abase/internal/analysis/lockdiscipline"
	"abase/internal/analysis/pipelinesite"
	"abase/internal/analysis/rucharge"
	"abase/internal/analysis/sentinelis"
)

// Analyzers returns the full abasecheck suite, one analyzer per
// enforced invariant.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		clockdiscipline.Analyzer,
		ctxfirst.Analyzer,
		lockdiscipline.Analyzer,
		pipelinesite.Analyzer,
		rucharge.Analyzer,
		sentinelis.Analyzer,
	}
}
