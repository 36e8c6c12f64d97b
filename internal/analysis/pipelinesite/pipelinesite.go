// Package pipelinesite keeps the DataNode's admission accounting in
// one place. Every client operation in internal/datanode flows through
// one request pipeline, Node.exec: it takes the request-queue slot
// (admit.submit), charges the partition quota (limiter.Allow), and
// returns the charge of work that never ran (limiter.Refund). A second
// call site would be a second copy of that protocol, free to drift
// from the first, so these calls may appear only inside exec.
package pipelinesite

import (
	"go/ast"
	"strings"

	"abase/internal/analysis"
)

// Analyzer is the pipelinesite checker.
var Analyzer = &analysis.Analyzer{
	Name: "pipelinesite",
	Doc: "internal/datanode admits, charges and refunds only inside Node.exec\n\n" +
		"limiter.Allow, limiter.Refund and admit.submit carry the DataNode's\n" +
		"admission and RU protocol; outside the single pipeline function\n" +
		"they would duplicate it. Build a stage and run it through exec.",
	Run: run,
}

// guarded maps a method name to the field its receiver must be.
var guarded = map[string]string{"Allow": "limiter", "Refund": "limiter", "submit": "admit"}

func run(pass *analysis.Pass) (interface{}, error) {
	if !strings.HasSuffix(pass.Pkg.Path(), "internal/datanode") {
		return nil, nil
	}
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.FileStart).Filename, "_test.go") {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || (fd.Recv != nil && fd.Name.Name == "exec") {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				recv, ok := sel.X.(*ast.SelectorExpr)
				if ok && guarded[sel.Sel.Name] == recv.Sel.Name {
					pass.Reportf(call.Pos(), "%s.%s outside Node.exec: admission, quota charges and refunds belong to the one DataNode pipeline",
						recv.Sel.Name, sel.Sel.Name)
				}
				return true
			})
		}
	}
	return nil, nil
}
