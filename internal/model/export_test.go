package model

// SetStampLimit makes limit the last selection stamp before a rebase and
// returns the function that restores the real limit. A test that calls
// it must not run in parallel: every simulator reads the limit.
func SetStampLimit(limit uint32) (restore func()) {
	old := stampLimit
	stampLimit = limit
	return func() { stampLimit = old }
}
