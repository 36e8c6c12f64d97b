package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"abase/internal/datanode"
	"abase/internal/wfq"
)

// serverDeployment reads cmd/abase-server's source and returns, with
// every flag at its default, the ClusterConfig and TenantSpec fields
// it sets and its traffic-monitor interval.
func serverDeployment(t *testing.T) (cluster, tenant map[string]any, monitor time.Duration) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "../cmd/abase-server/main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	flags := map[string]any{}  // flag variable -> default
	byName := map[string]any{} // flag name -> default
	cluster, tenant = map[string]any{}, map[string]any{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			call, ok := n.Rhs[0].(*ast.CallExpr)
			if !ok || len(n.Lhs) != 1 || len(call.Args) != 3 || !isSel(call.Fun, "flag") {
				return true
			}
			name, _ := strconv.Unquote(call.Args[0].(*ast.BasicLit).Value)
			v := eval(t, call.Args[1])
			if n, ok := v.(int); ok && call.Fun.(*ast.SelectorExpr).Sel.Name == "Duration" {
				v = time.Duration(n)
			}
			flags[n.Lhs[0].(*ast.Ident).Name] = v
			byName[name] = v
		case *ast.CompositeLit:
			var into map[string]any
			switch {
			case isSel(n.Type, "abase") && n.Type.(*ast.SelectorExpr).Sel.Name == "ClusterConfig":
				into = cluster
			case isSel(n.Type, "abase") && n.Type.(*ast.SelectorExpr).Sel.Name == "TenantSpec":
				into = tenant
			default:
				return true
			}
			for _, el := range n.Elts {
				kv := el.(*ast.KeyValueExpr)
				into[kv.Key.(*ast.Ident).Name] = kv.Value
			}
		}
		return true
	})
	// Fields set from flags take the flag's default; the tenant spec
	// comes from the -tenants default "name:quotaRU:partitions".
	spec := strings.Split(byName["tenants"].(string), ":")
	fromSpec := map[string]any{"Name": spec[0]}
	fromSpec["QuotaRU"], _ = strconv.ParseFloat(spec[1], 64)
	fromSpec["Partitions"], _ = strconv.Atoi(spec[2])
	for _, m := range []map[string]any{cluster, tenant} {
		for field, expr := range m {
			switch e := expr.(ast.Expr).(type) {
			case *ast.StarExpr:
				m[field] = flags[e.X.(*ast.Ident).Name]
			case *ast.BasicLit:
				m[field] = eval(t, e)
			default:
				v, ok := fromSpec[field]
				if !ok {
					t.Fatalf("cannot evaluate abase-server's %s", field)
				}
				m[field] = v
			}
		}
	}
	if d, ok := byName["cmd-timeout"].(time.Duration); !ok || d != 0 {
		t.Fatalf("abase-server's default -cmd-timeout is %v; the benchmark serves with none", byName["cmd-timeout"])
	}
	if s, ok := byName["default-tenant"].(string); !ok || s != "" {
		t.Fatalf("abase-server's default -default-tenant is %q; the benchmark authenticates", s)
	}
	return cluster, tenant, byName["traffic-monitor"].(time.Duration)
}

func isSel(e ast.Expr, pkg string) bool {
	s, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := s.X.(*ast.Ident)
	return ok && id.Name == pkg
}

// eval evaluates the flag defaults abase-server uses: int and string
// literals and n*time.Unit.
func eval(t *testing.T, e ast.Expr) any {
	switch e := e.(type) {
	case *ast.BasicLit:
		switch e.Kind {
		case token.INT:
			n, _ := strconv.Atoi(e.Value)
			return n
		case token.STRING:
			s, _ := strconv.Unquote(e.Value)
			return s
		}
	case *ast.BinaryExpr:
		n := eval(t, e.X).(int)
		units := map[string]time.Duration{"Second": time.Second, "Millisecond": time.Millisecond}
		if sel, ok := e.Y.(*ast.SelectorExpr); ok && isSel(sel, "time") && e.Op == token.MUL {
			return time.Duration(n) * units[sel.Sel.Name]
		}
	}
	t.Fatalf("cannot evaluate %T", e)
	return nil
}

// TestDeploymentParity pins the benchmark to the configuration
// abase-server deploys: every field the benchmark sets is the server's
// value or one of the two named deviations, and the simulated costs
// the server leaves at their defaults stay unset.
func TestDeploymentParity(t *testing.T) {
	cluster, tenant, monitor := serverDeployment(t)
	deviations := map[string]bool{"NodeCacheBytes": true, "QuotaRU": true}
	check := func(what string, bench any, server map[string]any) {
		v := reflect.ValueOf(bench)
		for i := 0; i < v.NumField(); i++ {
			field := v.Type().Field(i).Name
			got := v.Field(i)
			want, set := server[field]
			switch {
			case deviations[field]:
				if got.IsZero() {
					t.Errorf("%s.%s: the deviation is not set", what, field)
				}
			case set:
				if !reflect.DeepEqual(got.Convert(reflect.TypeOf(want)).Interface(), want) {
					t.Errorf("%s.%s = %v, abase-server sets %v", what, field, got, want)
				}
			case !got.IsZero():
				t.Errorf("%s.%s = %v, abase-server leaves it unset", what, field, got)
			}
		}
	}
	check("ClusterConfig", clusterConfig(), cluster)
	check("TenantSpec", tenantSpec(), tenant)
	if monitor != monitorEvery {
		t.Errorf("traffic monitor every %v, abase-server uses %v", monitorEvery, monitor)
	}
	cfg := clusterConfig()
	if cfg.Cost != (datanode.CostModel{}) || cfg.AdmitCost != 0 || cfg.WFQ != (wfq.Config{}) {
		t.Errorf("Cost, AdmitCost and WFQ must stay unset, got %+v %v %+v", cfg.Cost, cfg.AdmitCost, cfg.WFQ)
	}
	if tenantSpec().QuotaRU <= tenant["QuotaRU"].(float64) {
		t.Errorf("the quota deviation must raise the quota above abase-server's %v", tenant["QuotaRU"])
	}
	if cfg.NodeCacheBytes != 16<<20 {
		t.Errorf("NodeCacheBytes = %d, want 16 MiB", cfg.NodeCacheBytes)
	}
}
