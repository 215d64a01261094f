//go:build race

package wire

// Under the race detector sync.Pool drops a share of what is Put, so a
// warm pool still allocates.
func init() { poolsDrop = true }
