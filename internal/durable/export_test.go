package durable

// ResidentValueBytes reports the value bytes the store holds in memory, over
// every tenant. In disk mode the index keeps none: values live in files.
func (s *Store) ResidentValueBytes() int64 {
	s.mu.Lock()
	tenants := make([]*tenantState, 0, len(s.tenants))
	for _, ts := range s.tenants {
		tenants = append(tenants, ts)
	}
	s.mu.Unlock()
	var n int64
	for _, ts := range tenants {
		ts.mu.Lock()
		for _, sl := range ts.entries {
			n += int64(len(sl.values) * 8)
		}
		ts.mu.Unlock()
	}
	return n
}
