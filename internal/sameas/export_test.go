package sameas

// Same reports whether x and y belong to the same equivalence class of
// the recorded pairs (possibly through a chain of links).
func (l *Links) Same(x, y string) bool {
	adj := make(map[string][]string)
	for _, p := range l.pairs {
		adj[p.A] = append(adj[p.A], p.B)
		adj[p.B] = append(adj[p.B], p.A)
	}
	seen := map[string]bool{x: true}
	for queue := []string{x}; len(queue) > 0; queue = queue[1:] {
		for _, n := range adj[queue[0]] {
			if !seen[n] {
				seen[n] = true
				queue = append(queue, n)
			}
		}
	}
	return seen[y]
}
