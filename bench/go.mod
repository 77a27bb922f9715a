module nomap/bench

go 1.22

require nomap v0.0.0

replace nomap => ../
