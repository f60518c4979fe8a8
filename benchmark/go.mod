module skipper/benchmark

go 1.22

require skipper v0.0.0

replace skipper => ../
