package ir

// SkipMapForward plants a bug in the forwarding table until the returned
// restore is called: ApplyForwarding leaves every stack map pointing at
// forwarded values.
func SkipMapForward() (restore func()) {
	skipMapForward = true
	return func() { skipMapForward = false }
}
