let counter = ref 0
