module asyncio/benchmark

go 1.23

require asyncio v0.0.0

replace asyncio => ../
