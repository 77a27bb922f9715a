package jit

// OptionsFor exposes the FTL options the backend compiles an arch with.
var OptionsFor = optionsFor
