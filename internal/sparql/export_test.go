package sparql

// EvalString parses and evaluates a query.
func (e *Engine) EvalString(query string) (*Result, error) {
	q, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return e.Eval(q)
}

// Stream evaluates a parsed SELECT query as a row iterator, through the
// same shape-keyed plan cache Eval uses.
func (e *Engine) Stream(q *Query) (*RowIter, error) {
	p, err := e.Bind(q)
	if err != nil {
		return nil, err
	}
	return p.Iter()
}
