package minic

// WalkExpr calls visit on e and every subexpression of it, parents first;
// a nil e visits nothing.
func WalkExpr(e Expr, visit func(Expr)) {
	if e == nil {
		return
	}
	visit(e)
	switch v := e.(type) {
	case *CallExpr:
		for _, a := range v.Args {
			WalkExpr(a, visit)
		}
	case *BinExpr:
		WalkExpr(v.L, visit)
		WalkExpr(v.R, visit)
	case *UnExpr:
		WalkExpr(v.X, visit)
	case *AssignExpr:
		WalkExpr(v.LHS, visit)
		WalkExpr(v.RHS, visit)
	case *IncDecExpr:
		WalkExpr(v.X, visit)
	case *IndexExpr:
		WalkExpr(v.X, visit)
		WalkExpr(v.Index, visit)
	case *MemberExpr:
		WalkExpr(v.X, visit)
	case *DerefExpr:
		WalkExpr(v.X, visit)
	case *AddrExpr:
		WalkExpr(v.X, visit)
	case *CastExpr:
		WalkExpr(v.X, visit)
	case *CondExpr:
		WalkExpr(v.Cond, visit)
		WalkExpr(v.Then, visit)
		WalkExpr(v.Else, visit)
	case *SizeofExpr:
		// The analysis and the interpreter both evaluate sizeof's
		// operand, effects included.
		WalkExpr(v.X, visit)
	}
}
