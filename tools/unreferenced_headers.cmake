# Fails when a header under src/ is reached only by its own .cpp and by
# tests: no other file in src/, tools/, bench/, examples/ or perfbench/
# includes it, so the module it declares has no caller.
#   cmake -DREPO=<repo root> -P unreferenced_headers.cmake
cmake_minimum_required(VERSION 3.16)
if(NOT REPO)
  message(FATAL_ERROR "usage: cmake -DREPO=<repo root> -P ${CMAKE_SCRIPT_MODE_FILE}")
endif()

set(sources)
foreach(dir src tools bench examples perfbench)
  file(GLOB_RECURSE found "${REPO}/${dir}/*.hpp" "${REPO}/${dir}/*.cpp"
       "${REPO}/${dir}/*.inc")
  list(APPEND sources ${found})
endforeach()

# Every quoted include (src-relative, as the tree writes them), except a
# .cpp including its own header.
set(reached)
foreach(file IN LISTS sources)
  file(STRINGS "${file}" lines REGEX "^[ \t]*#[ \t]*include[ \t]+\"")
  foreach(line IN LISTS lines)
    string(REGEX REPLACE "^[ \t]*#[ \t]*include[ \t]+\"([^\"]+)\".*" "\\1"
           header "${line}")
    string(REGEX REPLACE "\\.hpp$" ".cpp" own "${REPO}/src/${header}")
    if(NOT file STREQUAL own)
      list(APPEND reached "${header}")
    endif()
  endforeach()
endforeach()

file(GLOB_RECURSE headers RELATIVE "${REPO}/src" "${REPO}/src/*.hpp")
list(SORT headers)
set(unreferenced)
foreach(header IN LISTS headers)
  if(NOT header IN_LIST reached)
    list(APPEND unreferenced "src/${header}")
  endif()
endforeach()

if(unreferenced)
  list(JOIN unreferenced "\n  " names)
  message(FATAL_ERROR
          "headers that nothing outside tests/ includes (delete the module "
          "or give it a caller):\n  ${names}")
endif()
list(LENGTH headers checked)
message("all ${checked} headers under src/ have an includer outside tests/")
