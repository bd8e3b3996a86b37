package sparql

// EvalString parses and evaluates a query.
func (e *Engine) EvalString(query string) (*Result, error) {
	q, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return e.Eval(q)
}
