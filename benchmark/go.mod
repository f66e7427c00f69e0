module fpinterop/benchmark

go 1.24

require fpinterop v0.0.0

replace fpinterop => ../
