package sparql

// Eval evaluates a parsed query: its shape is compiled (or fetched from
// the plan cache) and executed with the query's constants as arguments —
// the oracles' direct route into the engine, past the handle's argument
// check.
func (e *Engine) Eval(q *Query) (*Result, error) {
	p, err := e.bind(q)
	if err != nil {
		return nil, err
	}
	return p.exec(p.bound)
}

// EvalString evaluates a query text through BindText, the endpoint's
// route: a canonical text of a shape the engine holds is bound without
// a parse.
func (e *Engine) EvalString(query string) (*Result, error) {
	p, err := e.BindText(query)
	if err != nil {
		return nil, err
	}
	return p.exec(p.bound)
}

// Stream evaluates a parsed SELECT query as a row iterator, through the
// same shape-keyed plan cache Eval uses.
func (e *Engine) Stream(q *Query) (*RowIter, error) {
	p, err := e.bind(q)
	if err != nil {
		return nil, err
	}
	return p.Iter()
}
