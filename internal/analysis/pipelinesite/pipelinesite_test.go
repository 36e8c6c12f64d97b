package pipelinesite_test

import (
	"testing"

	"abase/internal/analysis/analysistest"
	"abase/internal/analysis/pipelinesite"
)

func TestFiresOutsideExec(t *testing.T) {
	analysistest.Run(t, pipelinesite.Analyzer,
		"abasecheck.test/internal/datanode", "testdata/node.go")
}

func TestSilentOutsideDatanode(t *testing.T) {
	analysistest.Run(t, pipelinesite.Analyzer,
		"abasecheck.test/internal/proxy", "testdata/other.go")
}
