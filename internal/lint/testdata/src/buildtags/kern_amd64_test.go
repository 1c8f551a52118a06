package buildtags

const testedPath = "assembly"
