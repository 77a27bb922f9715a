package ir

// SkipMapForward plants a bug in the forwarding table until the returned
// restore is called: ApplyForwarding leaves every stack map pointing at
// forwarded values.
func SkipMapForward() (restore func()) {
	skipMapForward = true
	return func() { skipMapForward = false }
}

// OnAnalysis calls h on every analysis cache fill until the returned restore
// is called: loops is false for a dominator tree, true for a loop forest.
func OnAnalysis(h func(loops bool)) (restore func()) {
	onAnalysis = h
	return func() { onAnalysis = nil }
}

// HoldsAnalyses reports whether f holds any cached analysis or its storage.
func HoldsAnalyses(f *Func) bool { return f.an.domOK || f.an.loopsOK || f.an.dom.idom != nil }
