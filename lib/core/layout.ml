let buffer_base = 0x1000_0000L
let secret_addr = 0x2000_0000L
let kernel_range = (0x2000_0000L, 0x2000_1000L)
let attacker_base = 0x3000_0000L
let cold_base = 0x4000_0000L
