package interp

import (
	"testing"

	"privacyscope/internal/minic"
)

// FuzzInterp feeds arbitrary bytes through the MiniC parser, then compiles
// and calls every defined function of each parsed file under a small step
// budget. Whatever the program does, the machine must fail with an error,
// never panic.
func FuzzInterp(f *testing.F) {
	for _, c := range stepGolden {
		if c.name != "chain-9" {
			f.Add(c.src)
		}
	}
	f.Add(chainSrc(3))
	f.Add("struct S { int a; struct S s; }; int f(void) { struct S x; return sizeof(struct S); }")
	f.Add("int g[99999999999][99999999999]; int f(void) { int a[2147483647]; return a[0]; }")
	f.Add("int f(int c) { int x = 1; if (c) int x = 2; switch (c) { case 0: int y = x; default: y++; } return x; }")
	f.Add("int f(int *p) { p += 2; p++; --p; return *p + p[-2] + (p - 1)[0]; }")
	f.Fuzz(func(t *testing.T, src string) {
		file, err := minic.Parse(src)
		if err != nil {
			return
		}
		prog := Compile(file)
		for _, fn := range file.Functions {
			if fn.Body == nil {
				continue
			}
			m, err := prog.NewMachine()
			if err != nil {
				return
			}
			m.MaxSteps = 2000
			args := make([]Value, len(fn.Params))
			for i, p := range fn.Params {
				switch ty := p.Type.(type) {
				case minic.Pointer:
					kind := CellInt
					if kinds, _ := objectLayout(ty.Elem); len(kinds) > 0 {
						kind = kinds[0]
					}
					args[i] = PtrValue(Pointer{Obj: NewBuffer(p.Name, kind, 4)})
				default:
					args[i] = IntValue(1)
				}
			}
			_, _ = m.Call(fn.Name, args)
		}
	})
}
