module gvrt/benchmark

go 1.22

require gvrt v0.0.0

replace gvrt => ../
