package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// allowedSurface is every name of the program the benchmark may touch
// through a package selector: the root facade plus the internal functions
// and types the per-layer table names. README.md repeats this list. A later
// change that deletes a surface ROADMAP items 2 and 3 target must not have to
// edit the benchmark, so none of those surfaces is here.
var allowedSurface = map[string][]string{
	"skipper": {
		"NewRuntime", "Runtime", "RuntimeOption", "WithThreads", "WithSeed", "WithTracer", "NewTracer", "Tracer",
		"Network", "Dataset", "Device", "DeviceConfig", "NewDevice", "ModelOptions",
		"Trainer", "Config", "Strategy", "StepStats", "EpochStats", "BPTT", "Checkpoint", "Skipper",
		"TrainSplit", "TestSplit", "MemActivations", "MemInput", "SaveWeights", "LoadWeights",
	},
	"skipper/internal/serve":    {"NewServer", "Server", "Config", "InferResponse"},
	"skipper/internal/router":   {"New", "Router", "Config", "BackendSpec", "ClassConfig"},
	"skipper/internal/stream":   {"Dial", "Client", "GenOptions", "GenWindow", "OpenRequest", "WindowRequest"},
	"skipper/internal/tensor":   {"New", "Tensor", "NewRNG", "RNG", "ConvSpec", "NewScratch", "Conv2D", "Conv2DGradInput", "Conv2DGradWeight", "MatMul"},
	"skipper/internal/snn":      {"DefaultParams", "StepLIF", "SurrogateDelta", "Triangle"},
	"skipper/internal/core":     {"Cursor"},
	"skipper/internal/runstate": {"Capture"},
	"skipper/internal/frame":    {"EncodeCorr", "DecodeCorr"},
}

// forbiddenNames are fields and methods of surfaces slated for deletion;
// they may not appear after any dot, whatever the receiver.
var forbiddenNames = []string{
	"SpikePack", "SetSpikePack", "OPacked", "PackedForward", "ForwardPacked", "PackedBackward", "BackwardPacked",
	"PackSpikes", "PackedSpikes", "Conv2DPacked", "Conv2DGradWeightPacked", "MatMulPacked", "MatMulTransBPacked",
	"MatMulTransAPacked", "MatMulTransAPackedAcc", "StepLIFPacked", "PackedKernelStats", "CompressSpikes",
}

// allowedConfigFields are the skipper.Config fields the benchmark sets; the
// deprecated Seed and Metrics aliases are not among them.
var allowedConfigFields = map[string]bool{"T": true, "Batch": true, "LR": true, "Device": true}

func TestBenchmarkTouchesOnlyTheStableSurface(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]map[string]bool{}
	for path, names := range allowedSurface {
		allowed[path] = map[string]bool{}
		for _, n := range names {
			allowed[path][n] = true
		}
	}
	forbidden := map[string]bool{}
	for _, n := range forbiddenNames {
		forbidden[n] = true
	}
	used := map[string]bool{}
	for _, pkg := range pkgs {
		for file, f := range pkg.Files {
			local := map[string]string{} // local package name -> import path
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if !strings.HasPrefix(path, "skipper") {
					if strings.Contains(path, ".") {
						t.Errorf("%s imports %s: only the standard library and this module are allowed", file, path)
					}
					continue
				}
				if allowed[path] == nil {
					t.Errorf("%s imports %s, which is not on the benchmark's allowed list", file, path)
					continue
				}
				name := path[strings.LastIndexByte(path, '/')+1:]
				if imp.Name != nil {
					name = imp.Name.Name
				}
				local[name] = path
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if forbidden[n.Sel.Name] {
						t.Errorf("%s: %s is a surface slated for deletion", fset.Position(n.Pos()), n.Sel.Name)
					}
					id, ok := n.X.(*ast.Ident)
					if !ok || id.Obj != nil { // a local variable shadows the package name
						return true
					}
					if path, ok := local[id.Name]; ok {
						used[path+"."+n.Sel.Name] = true
						if !allowed[path][n.Sel.Name] {
							t.Errorf("%s: %s.%s is not on the benchmark's allowed list", fset.Position(n.Pos()), id.Name, n.Sel.Name)
						}
					}
				case *ast.CompositeLit:
					sel, ok := n.Type.(*ast.SelectorExpr)
					if !ok || sel.Sel.Name != "Config" {
						return true
					}
					if id, ok := sel.X.(*ast.Ident); !ok || local[id.Name] != "skipper" {
						return true
					}
					for _, el := range n.Elts {
						kv, ok := el.(*ast.KeyValueExpr)
						if !ok {
							t.Errorf("%s: skipper.Config must be built with field names", fset.Position(el.Pos()))
							continue
						}
						if key := kv.Key.(*ast.Ident).Name; !allowedConfigFields[key] {
							t.Errorf("%s: skipper.Config.%s is not a field the benchmark may set", fset.Position(kv.Pos()), key)
						}
					}
				}
				return true
			})
		}
	}
	// The list must not rot either: every name on it is in use.
	var unused []string
	for path, names := range allowedSurface {
		for _, n := range names {
			if !used[path+"."+n] {
				unused = append(unused, path+"."+n)
			}
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("allowed but unused, remove from the list and README.md: %v", unused)
	}
}
