package glfix

// lastViews is a package-level debug hook.
var lastViews []ColView

// debugDump intentionally parks the live views for the inspector; the
// generation hazard is accepted and documented.
func debugDump(m *Manager, reduce int) {
	//lint:ignore genlife debug inspector snapshot; read before the generation retires by construction
	lastViews = m.ReduceInput(reduce)
}
